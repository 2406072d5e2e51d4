"""How a layer's time grows with the size of its input.

Each test times one call at n and 2n levels of a chain, takes the best of
several runs at each size to shed the noise of a busy machine, and bounds
the ratio between a growth the input's size forces and the next power up.
"""

import time

import pytest

from l2int.derivation import validate
from l2int.rewrite import find_redexes, normalize
from l2int.syntax import PLUS, And, Atom, Basis, Imp, Inl, Lam, Pair, Var
from l2int.textio import parse_formula, parse_term, print_formula, print_term
from l2int.typecheck import check, infer_principal
from test_rewrite import _case_chain


def _best_seconds(run, repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        run()
        times.append(time.perf_counter() - t0)
    return min(times)


def _lambda_chain(n: int):
    """The derivation of (\\x0+. (\\x1+. ... x0+)+)+ at a0 -> a1 -> ... -> a0,
    whose node i carries a basis of i entries."""
    t, f = Var("x0", PLUS), Atom("a0")
    for i in reversed(range(n)):
        t, f = Lam(f"x{i}", t, PLUS), Imp(Atom(f"a{i}"), f)
    return check(Basis(), PLUS, t, f)


def test_validate_time_is_quadratic_on_a_lambda_chain():
    # The chain's bases hold about n²/2 entries in all, so validate takes
    # at least quadratic time, and doubling n at most quadruples it once the
    # per-node cost is paid.  Searching each premise entry in the conclusion's
    # side made it cubic: 85 -> 528 ms from 200 to 400 levels (6.2x) on
    # Python 3.11, against 3.2 -> 8.8 ms (2.7x) with the premise basis compared
    # to the extended conclusion basis.  The bound of 4.5 lies between.
    def seconds(n):
        d = _lambda_chain(n)
        assert validate(d) == []
        return _best_seconds(lambda: validate(d))

    assert seconds(400) < 4.5 * seconds(200)


def _inl_chain(n: int):
    """inl+(inl+(... y+)), n levels."""
    t = Var("y", PLUS)
    for _ in range(n):
        t = Inl(t, PLUS)
    return t


def test_infer_principal_time_is_linear_on_chains():
    # One typing walk, one unification per node and one lettering of the
    # result, so doubling the levels about doubles the time: from 200 to
    # 400 levels the ratio was 1.94-2.10 (2.5-3.1 ms at 400) on both chains
    # on Python 3.11, with metavariables lettered by `_rename_metavars` and
    # by `instantiate` alike.  The bound of 3 leaves a margin of about 0.9
    # for noise and fails a quadratic pass (4x).
    for name, chain in [("lambda", lambda n: _lambda_chain(n).concl.term), ("inl", _inl_chain)]:
        small, large = chain(200), chain(400)
        assert _best_seconds(lambda: infer_principal(large)) < 3 * _best_seconds(lambda: infer_principal(small)), name


def _balanced(leaf, join, height: int):
    """The balanced tree of 2**height leaves, leaf(i) the i-th, joined by join."""
    level = [leaf(i) for i in range(2**height)]
    while len(level) > 1:
        level = [join(a, b) for a, b in zip(level[::2], level[1::2])]
    return level[0]


def test_parse_time_is_linear_on_balanced_trees():
    # Lexing and parsing are one pass over the text, so doubling the leaves
    # about doubles the time.  From 2**12 to 2**13 leaves the ratio was
    # 1.84-2.27 for both parsers on Python 3.11 (27 -> 60 ms for terms),
    # both with the lexer that walked the text one character at a time and
    # with one regular expression per lexer.  The bound of 3 leaves room for
    # noise and fails a parser that goes quadratic anywhere (4x).
    for parse, leaf, join, show in [
        (parse_term, lambda i: Var(f"x{i}", PLUS), lambda a, b: Pair(a, b, PLUS), print_term),
        (parse_formula, lambda i: Atom(f"a{i}"), And, print_formula),
    ]:
        small, large = (show(_balanced(leaf, join, h)) for h in (12, 13))
        assert _best_seconds(lambda: parse(large)) < 3 * _best_seconds(lambda: parse(small)), parse.__name__


# Every level of the case chain is a simp redex, and normalize contracts
# one at the root per step.  Rescanning the whole term at each step, with
# both branches walked by free_vars at every case, made normalize cubic and
# find_redexes quadratic: from 50 to 100 levels normalize went 40 -> 317
# ms (7.9-9.5x in two runs), and from 200 to 400 find_redexes went 43 ->
# 187 ms (4.3-4.9x), on Python 3.11.  With each node's facts computed once
# per call, the ratios were 2.1-2.2 for normalize (20 calls take 5 ms at
# 50 levels) and 1.9-2.5 for find_redexes (10 calls take 13 ms at 200
# levels), whose paths, one per redex, add up to a quadratic number of
# entries.  The bound of 3 leaves about 0.5 for noise and fails a
# quadratic pass (4x).
@pytest.mark.parametrize(
    "run, n, calls", [(normalize, 50, 20), (find_redexes, 200, 10)], ids=lambda v: getattr(v, "__name__", v)
)
def test_rewrite_time_is_linear_on_a_case_chain(run, n, calls):
    small, large = _case_chain(n), _case_chain(2 * n)
    seconds = lambda t: _best_seconds(lambda: [run(t) for _ in range(calls)])
    assert seconds(large) < 3 * seconds(small)
