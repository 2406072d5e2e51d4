"""How a layer's time, and its count of calls, grow with the size of its input.

Each time row times one call at n and 2n levels of a chain, takes the best
of several runs at each size to shed the noise of a busy machine, and
bounds the ratio between a growth the input's size forces and the next
power up.  Each count row counts the call events of one call at each size,
which is the same on every run, so its bound needs no room for noise.
Counts do not see work done inside one C call (building a string, say), so
the time rows stay beside them.
"""

import gc
import json
import sys
import time

import pytest

from l2int.derivation import validate
from l2int.duality import dual_derivation
from l2int.meaning import sense
from l2int.rewrite import find_redexes, normalize
from l2int.syntax import PLUS, And, App, Atom, Basis, Imp, Inl, Lam, Or, Pair, Var, term_size
from l2int.textio import derivation_from_obj, derivation_to_json, parse_formula, parse_term, print_formula, print_term
from l2int.typecheck import check, infer_principal
from test_recursion_depth import _derivation
from test_rewrite import _case_chain


def _best_seconds(run, repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        run()
        times.append(time.perf_counter() - t0)
    return min(times)


def _best_pair(small, large, repeats: int) -> tuple[float, float]:
    """The best times of small and of large over runs that alternate, so
    that a spell of load slows both of them, not one.  The garbage
    collector is off while they run, as `timeit` has it: a collection
    costs what the whole heap holds, and when one falls inside every run
    of one size it moves the ratio by itself."""
    best = [float("inf")] * 2
    collecting = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            for i, run in enumerate((small, large)):
                t0 = time.perf_counter()
                run()
                best[i] = min(best[i], time.perf_counter() - t0)
    finally:
        if collecting:
            gc.enable()
    return best[0], best[1]


def _calls(run) -> int:
    """The call events, of Python functions and of C ones, that one call of
    run makes, counted under sys.setprofile."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    sys.setprofile(count)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


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


# Per parser: the text of a balanced tree of 2**12 and of 2**13 leaves.
PARSERS = [
    (parse_term, lambda i: Var(f"x{i}", PLUS), lambda a, b: Pair(a, b, PLUS), print_term),
    (parse_formula, lambda i: Atom(f"a{i}"), And, print_formula),
]


def _parse_inputs():
    for parse, leaf, join, show in PARSERS:
        yield parse, *(show(_balanced(leaf, join, h)) for h in (12, 13))


def test_parse_time_is_linear_on_balanced_trees():
    # Lexing and parsing are one pass over the text, so doubling the leaves
    # about doubles the time.  From 2**12 to 2**13 leaves the ratio was
    # 1.84-2.27 for both parsers on Python 3.11 (27 -> 60 ms for terms),
    # both with the lexer that walked the text one character at a time and
    # with one regular expression per lexer.  The bound of 3 leaves room for
    # noise and fails a parser that goes quadratic anywhere (4x).  With the
    # best of 5 runs at each size in turn, the row failed about once in six
    # runs; with `_best_pair`'s 15 the term ratio read 1.98-2.14 in separate
    # processes.
    for parse, small, large in _parse_inputs():
        small_s, large_s = _best_pair(lambda: parse(small), lambda: parse(large), 15)
        assert large_s < 3 * small_s, parse.__name__


def test_parse_calls_are_linear_on_balanced_trees():
    # The count reads 2.00 for both parsers from 2**12 to 2**13 leaves.  A
    # walk per node over the tokens before it makes it about 4.
    for parse, small, large in _parse_inputs():
        assert _calls(lambda: parse(large)) < 2.2 * _calls(lambda: parse(small)), parse.__name__


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
    # The best of 5 runs at each size in turn once read 3.26 for
    # find_redexes; the best of 15 alternating between the sizes steadies it.
    small, large = _case_chain(n), _case_chain(2 * n)
    sample = lambda t: lambda: [run(t) for _ in range(calls)]  # noqa: E731
    small_s, large_s = _best_pair(sample(small), sample(large), 15)
    assert large_s < 3 * small_s


@pytest.mark.parametrize("run, n", [(normalize, 50), (find_redexes, 200)], ids=lambda v: getattr(v, "__name__", v))
def test_rewrite_calls_are_linear_on_a_case_chain(run, n):
    # One call of each reads 2.00 from n to 2n levels: normalize 1,301 ->
    # 2,601 calls, find_redexes 4,204 -> 8,404.  Rescanning at each step, or
    # walking a branch at each case, makes it about 4.
    assert _calls(lambda: run(_case_chain(2 * n))) < 2.2 * _calls(lambda: run(_case_chain(n)))


def _inl_derivation(n: int):
    """The derivation of inl+(inl+(... y+)) at a | a ... | a under y : a."""
    f = Atom("a")
    for _ in range(n):
        f = Or(f, Atom("a"))
    return check(Basis.make({"y": Atom("a")}), PLUS, _inl_chain(n), f)


@pytest.mark.parametrize("chain", [_inl_derivation, _lambda_chain], ids=["inl", "lambda"])
def test_sense_calls_grow_with_its_output(chain):
    # The sense of a chain of n levels holds its n + 1 subjects, about n²/2
    # term nodes in all, so sense is at least quadratic; what it may not do
    # is grow faster than that.  Its calls per output node read 0.97-0.98
    # from 100 to 200 levels (inl 13.8 -> 13.4, lambda 20.8 -> 20.4).
    # Printing each subterm from scratch, say, makes them about double.
    def per_node(n):
        d = chain(n)
        output = sum(term_size(e.term) for e in sense(d).entries)
        return _calls(lambda: sense(d)) / output

    assert per_node(200) < 1.2 * per_node(100)


def test_dual_derivation_calls_grow_with_its_output():
    # On the chain of lambdas that all bind x, each node's type is its
    # parent's right part and each node's term its parent's body, so the
    # dual's end term holds every term of the dual once.  Calls per node of
    # it read 1.00 from 100 to 200 levels (41.04 -> 41.02).  Dropping the
    # memo of terms, or of formulas, dualizes each node's term or type from
    # scratch, which makes it 1.95-1.96.
    def per_node(n):
        d = _derivation("lambda", n)
        return _calls(lambda: dual_derivation(d)) / term_size(dual_derivation(d).concl.term)

    assert per_node(200) < 1.2 * per_node(100)


def _app_chain(n: int):
    """The derivation of app+(f+, app+(f+, ... y+)) at F under f : F -> F
    and y : F, where F is a & a & ... & a, n levels deep: every node
    carries F, or F -> F, and the one basis, as the same objects, and every
    node's JSON repeats their text."""
    a = Atom("a")
    f, t = a, Var("y", PLUS)
    for _ in range(n):
        f, t = And(f, a), App(Var("f", PLUS), t, PLUS)
    return check(Basis.make({"f": Imp(f, f), "y": f}), PLUS, t, f)


# Per walk: what it takes, made from the app chain, and the walk.
JSON_WALKS = {
    "derivation_to_json": (lambda d: d, derivation_to_json),
    "derivation_from_obj": (lambda d: json.loads(derivation_to_json(d)), derivation_from_obj),
}


@pytest.mark.parametrize("walk", list(JSON_WALKS))
def test_json_calls_are_linear_in_the_nodes_of_a_chain_at_one_type(walk):
    # Each formula object, and each formula string, is printed or parsed
    # once per call, and each term once, so the calls per derivation node
    # read 1.00 from 100 to 200 levels (the dump 106.7 -> 106.8, the load
    # 212.7 -> 212.9), though the text grows as n².  Dropping the memo of
    # formulas prints or parses F at every node (1.97-1.98); dropping the
    # dump's memo of terms prints each node's term from scratch (1.73), and
    # parsing each premise's term string instead of taking its parent's
    # child does the same in the load (1.97).  On the `inl` chain no such
    # row can see these memos: each node's type there is a new formula,
    # which both walks print or parse in full, so their calls grow as the
    # text does with the memos or without.
    make, run = JSON_WALKS[walk]

    def per_node(n):
        arg = make(_app_chain(n))
        return _calls(lambda: run(arg)) / (n + 1)

    assert per_node(200) < 1.2 * per_node(100)
