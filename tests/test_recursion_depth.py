"""How deep a term each recursive traversal can follow.

Each traversal takes one Python frame per nesting level of its input, so
under a fixed recursion limit it follows a chain of `inl`s, `app`s, lambdas
or case branches to within a few levels of the depth a plain recursion
reaches (3 to 7 levels short, with Python 3.11).  A traversal that took two
frames per level (a generator or a comprehension around the recursive
call, or a dataclass's own hash or equality, say) would stop at about half
of it.  The JSON dump, `sense`, `validate`, `height` and `dual_derivation`
run on the derivation `check` builds for a chain, the JSON load on the
object its dump reads as, and `print_formula` on formulas nested on one
side.
"""

import functools
import json
import sys

import pytest

from l2int.derivation import height, validate
from l2int.duality import dual_derivation, dual_term
from l2int.meaning import canonical_variable_form, sense
from l2int.rewrite import find_redexes, normalize
from l2int.syntax import (
    PLUS,
    And,
    App,
    Atom,
    Basis,
    Case,
    CoImp,
    Imp,
    Inl,
    Lam,
    Or,
    Var,
    alpha_key,
    free_vars,
    substitute,
)
from l2int.textio import (
    ParseError,
    derivation_from_obj,
    derivation_to_json,
    parse_term,
    print_formula,
    print_term,
)
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


@functools.cache
def _derivation(chain: str, n: int):
    return check(CHAINS[chain][2], PLUS, _term(chain, n), _formula(chain, n))


def _json_object(chain: str, n: int):
    """The JSON object of chain's derivation: it nests two containers per
    level, deeper than `json.loads` follows under the usual limit."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, 4 * n + 100))
    try:
        return json.loads(derivation_to_json(_derivation(chain, n)))
    finally:
        sys.setrecursionlimit(old)


# Per traversal: what builds its input from the chain and the depth, under
# the usual recursion limit, and a call of the traversal, which like the
# tests before it spends one frame of its own.
TRAVERSALS = {
    "free_vars": (_term, lambda t: free_vars(t)),
    "substitute": (_term, lambda t: substitute(t, "y", PLUS, Var("w", PLUS))),
    "alpha_key": (_term, lambda t: alpha_key(t)),
    "canonical_variable_form": (_term, lambda t: canonical_variable_form(t)),
    "find_redexes": (_term, lambda t: find_redexes(t)),
    "normalize": (_term, lambda t: normalize(t)),
    "dual_term": (_term, lambda t: dual_term(t)),
    "print_term": (_term, lambda t: print_term(t)),
    "parse_term": (_source, lambda src: parse_term(src)),
    "infer_principal": (_term, lambda t: infer_principal(t)),
    "check": (lambda chain, n: (CHAINS[chain][2], PLUS, _term(chain, n), _formula(chain, n)), lambda args: check(*args)),
    "derivation_to_json": (_derivation, lambda d: derivation_to_json(d)),
    "sense": (_derivation, lambda d: sense(d)),
    "dual_derivation": (_derivation, lambda d: dual_derivation(d)),
    "derivation_from_obj": (_json_object, lambda obj: derivation_from_obj(obj)),
    "validate": (_derivation, lambda d: validate(d)),
    "height": (_derivation, lambda d: height(d)),
}


def _too_deep(traversal, chain: str, n: int) -> bool:
    make, run = traversal
    arg = make(chain, n)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(LIMIT)
    try:
        run(arg)
    except RecursionError:
        return True
    except ParseError as e:
        if e.message != "nested too deeply":
            raise
        return True
    finally:
        sys.setrecursionlimit(old)
    return False


def _deepest(traversal, chain: str, guess: int, most: int = LIMIT) -> int:
    """The largest n at most `most` for which the traversal of chain's
    input of depth n does not run out of stack while the recursion limit is
    LIMIT.  The search starts at guess, since each probe near the limit can
    cost a quadratic walk."""
    lo, hi = (guess, most) if not _too_deep(traversal, chain, guess) else (0, guess - 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _too_deep(traversal, chain, mid):
            hi = mid - 1
        else:
            lo = mid
    return lo


def _descend(n: int) -> None:
    """A plain recursion n levels deep."""
    return _descend(n - 1) if n else None


PLAIN = (lambda chain, n: n, _descend)


def _follows_to_near_the_limit(traversal, chain: str) -> None:
    """Both are searched through `_deepest`, so both start from the same
    stack depth, and the traversal's lambda costs it one frame of SLACK.
    The search stops at the floor: one probe decides unless the traversal
    falls short."""
    available = _deepest(PLAIN, chain, LIMIT // 2)
    floor = available - SLACK
    depth = _deepest(traversal, chain, floor, floor)
    assert depth >= floor, (chain, depth, available)


def test_chains_are_built_as_their_source_reads():
    for chain in CHAINS:
        assert parse_term(_source(chain, 3)) == _term(chain, 3)
        assert _derivation(chain, 3).concl.term == _term(chain, 3)


@pytest.mark.parametrize("chain", list(CHAINS))
@pytest.mark.parametrize("traversal", list(TRAVERSALS))
def test_traversal_follows_a_chain_to_near_the_recursion_limit(traversal, chain):
    _follows_to_near_the_limit(TRAVERSALS[traversal], chain)


# Formulas nested on one side, each connective on the side it prints bare
# and on the side it puts in parentheses.
FORMULA_CHAINS = {
    "and left": lambda f: And(f, a),
    "and right": lambda f: And(a, f),
    "or left": lambda f: Or(f, a),
    "imp right": lambda f: Imp(a, f),
    "imp left": lambda f: Imp(f, a),
    "coimp left": lambda f: CoImp(f, a),
}


def _formula_chain(chain: str, n: int):
    f = a
    for _ in range(n):
        f = FORMULA_CHAINS[chain](f)
    return f


@pytest.mark.parametrize("chain", list(FORMULA_CHAINS))
def test_print_formula_follows_a_formula_chain_to_near_the_recursion_limit(chain):
    _follows_to_near_the_limit((_formula_chain, lambda f: print_formula(f)), chain)
