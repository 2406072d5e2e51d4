"""How deep a term each recursive traversal can follow.

Each traversal takes one Python frame per nesting level of its input, so
under a fixed recursion limit it follows a chain of `inl`s, `app`s, lambdas
or case branches to within a few levels of the depth a plain recursion
reaches (3 to 7 levels short, with Python 3.11).  A traversal that took two
frames per level (a generator or a comprehension around the recursive
call, say) would stop at about half of it.
"""

import sys

import pytest

from l2int.duality import dual_term
from l2int.meaning import canonical_variable_form
from l2int.rewrite import find_redexes
from l2int.syntax import PLUS, App, Atom, Basis, Case, Imp, Inl, Lam, Or, Var, alpha_key, free_vars, substitute
from l2int.textio import ParseError, parse_term, print_term
from l2int.typecheck import check, infer_principal

LIMIT = 600
# Levels a traversal may fall short of a plain recursion that takes one
# frame per level: its entry points and the calls each level makes
# before descending.
SLACK = 8

a = Atom("a")
y = Var("y", PLUS)

# Per chain: the term of n levels (built without recursion), its source
# text, a basis and the formula it checks at.
CHAINS = {
    "inl": (
        lambda t: Inl(t, PLUS),
        ("inl+(", ")"),
        Basis.make({"y": a}),
        lambda f: Or(f, a),
    ),
    "app": (
        lambda t: App(Var("f", PLUS), t, PLUS),
        ("app+(f+, ", ")"),
        Basis.make({"f": Imp(a, a), "y": a}),
        lambda f: f,
    ),
    "lambda": (
        lambda t: Lam("x", t, PLUS),
        ("(\\x+. ", ")+"),
        Basis.make({"y": a}),
        lambda f: Imp(a, f),
    ),
    "case branch": (
        lambda t: Case(Var("z", PLUS), "x", t, "x", y, PLUS),
        ("case z+ {x+. ", " | x+. y+}+"),
        Basis.make({"y": a, "z": Or(a, a)}),
        lambda f: f,
    ),
}


def _term(chain: str, n: int):
    wrap = CHAINS[chain][0]
    t = y
    for _ in range(n):
        t = wrap(t)
    return t


def _source(chain: str, n: int) -> str:
    before, after = CHAINS[chain][1]
    return before * n + "y+" + after * n


def _formula(chain: str, n: int):
    wrap = CHAINS[chain][3]
    f = a
    for _ in range(n):
        f = wrap(f)
    return f


TRAVERSALS = {
    "free_vars": lambda chain, n: free_vars(_term(chain, n)),
    "substitute": lambda chain, n: substitute(_term(chain, n), "y", PLUS, Var("w", PLUS)),
    "alpha_key": lambda chain, n: alpha_key(_term(chain, n)),
    "canonical_variable_form": lambda chain, n: canonical_variable_form(_term(chain, n)),
    "find_redexes": lambda chain, n: find_redexes(_term(chain, n)),
    "dual_term": lambda chain, n: dual_term(_term(chain, n)),
    "print_term": lambda chain, n: print_term(_term(chain, n)),
    "parse_term": lambda chain, n: parse_term(_source(chain, n)),
    "infer_principal": lambda chain, n: infer_principal(_term(chain, n)),
    "check": lambda chain, n: check(CHAINS[chain][2], PLUS, _term(chain, n), _formula(chain, n)),
}


def _too_deep(run, chain: str, n: int) -> bool:
    try:
        run(chain, n)
    except RecursionError:
        return True
    except ParseError as e:
        if e.message != "nested too deeply":
            raise
        return True
    return False


def _deepest(run, chain: str, guess: int) -> int:
    """The largest n at most LIMIT for which run(chain, n) does not run out
    of stack while the recursion limit is LIMIT.  The search starts at
    guess, since each probe near the limit can cost a quadratic walk."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(LIMIT)
    try:
        lo, hi = (guess, LIMIT) if not _too_deep(run, chain, guess) else (0, guess - 1)
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if _too_deep(run, chain, mid):
                hi = mid - 1
            else:
                lo = mid
        return lo
    finally:
        sys.setrecursionlimit(old)


def _descend(chain: str, n: int) -> None:
    """A plain recursion n levels deep."""
    return _descend(chain, n - 1) if n else None


def test_chains_are_built_as_their_source_reads():
    for chain in CHAINS:
        assert parse_term(_source(chain, 3)) == _term(chain, 3)
        assert check(CHAINS[chain][2], PLUS, _term(chain, 3), _formula(chain, 3)).concl.term == _term(chain, 3)


@pytest.mark.parametrize("chain", list(CHAINS))
@pytest.mark.parametrize("traversal", list(TRAVERSALS))
def test_traversal_follows_a_chain_to_near_the_recursion_limit(traversal, chain):
    available = _deepest(_descend, chain, LIMIT // 2)
    depth = _deepest(TRAVERSALS[traversal], chain, available - SLACK)
    assert depth >= available - SLACK, (traversal, chain, depth, available)
