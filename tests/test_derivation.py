import dataclasses
import tracemalloc

import hypothesis as hyp
import hypothesis.strategies as st
import pytest

from l2int.derivation import RULES, Derivation, Judgment, height, validate
from l2int.duality import dual_derivation
from l2int.syntax import (
    PLUS,
    MINUS,
    And,
    Atom,
    Basis,
    CoImp,
    Falsum,
    Imp,
    Inl,
    Lam,
    Or,
    Top,
    Var,
    Verum,
)
from l2int.testkit import GenConfig, gen_derivation
from l2int.textio import derivation_from_json, parse_formula, parse_term
from l2int.typecheck import check
from conftest import DATA, load_worked_pair
from former import former_validate


def leaf(rule, basis, pol, term, typ):
    return Derivation(rule, Judgment(basis, pol, term, typ))


def test_rules_inventory():
    assert len(RULES) == 28
    assert len(set(RULES)) == 28
    assert "Hyp+" in RULES and "Hyp-" in RULES
    dual_named = [r for r in RULES if r.endswith("_d") or r.endswith("_d1") or r.endswith("_d2")]
    assert len(dual_named) == 13


def test_height_of_worked_pair():
    first, second = load_worked_pair()
    assert height(first) == 4
    assert height(second) == 4


def test_height_of_leaves():
    hyp_leaf = leaf("Hyp+", Basis.make({"x": Atom("a")}), PLUS, Var("x", PLUS), Atom("a"))
    assert height(hyp_leaf) == 0
    top_leaf = leaf("TopI", Basis(), PLUS, Top(), Verum())
    assert height(top_leaf) == 1


def test_validate_worked_pair():
    first, second = load_worked_pair()
    assert validate(first) == []
    assert validate(second) == []


def test_validate_simple_leaves():
    assert validate(leaf("TopI", Basis(), PLUS, Top(), Verum())) == []
    assert validate(leaf("BotI_d", Basis(), MINUS, parse_term("bot-"), Falsum())) == []
    b = Basis.make(None, {"y": Atom("b")})
    assert validate(leaf("Hyp-", b, MINUS, Var("y", MINUS), Atom("b"))) == []


def test_validate_unknown_rule():
    d = leaf("FooI", Basis(), PLUS, Top(), Verum())
    vs = validate(d)
    assert len(vs) == 1
    assert "unknown rule" in vs[0].message


def test_validate_hyp_needs_assumption():
    d = leaf("Hyp+", Basis(), PLUS, Var("x", PLUS), Atom("a"))
    assert any("not assumed" in v.message for v in validate(d))
    wrong = leaf("Hyp+", Basis.make({"x": Atom("b")}), PLUS, Var("x", PLUS), Atom("a"))
    assert any("not assumed" in v.message for v in validate(wrong))


def test_validate_arity():
    extra = Derivation(
        "TopI",
        Judgment(Basis(), PLUS, Top(), Verum()),
        (leaf("TopI", Basis(), PLUS, Top(), Verum()),),
    )
    assert any("premises" in v.message for v in validate(extra))


def test_validate_polarity_mismatch():
    d = leaf("TopI", Basis(), MINUS, Top(), Verum())
    assert any("polarity" in v.message for v in validate(d))


def test_validate_tampered_premise_type():
    first, _ = load_worked_pair()

    def tamper(d):
        p = d.prems[0]
        new_p = dataclasses.replace(p, concl=dataclasses.replace(p.concl, type=Atom("zz")))
        return dataclasses.replace(d, prems=(new_p,) + d.prems[1:])

    vs = validate(tamper(first))
    assert vs != []


def test_validate_tampered_premise_basis():
    # a premise quietly assuming more than the conclusion allows
    d = check(Basis(), PLUS, parse_term("(\\x+. x+)+"), parse_formula("a -> a"))
    p = d.prems[0]
    grown = dataclasses.replace(
        p, concl=dataclasses.replace(p.concl, basis=p.concl.basis.extend("q", PLUS, Atom("b")))
    )
    vs = validate(dataclasses.replace(d, prems=(grown,)))
    assert any("more than the conclusion allows" in v.message for v in vs)


@pytest.mark.parametrize("extra, names", [
    ([(PLUS, "q", "b"), (MINUS, "q", "b")], "q"),
    ([(PLUS, "q", "b"), (MINUS, "q", "c")], "q, q"),
    ([(MINUS, "x", "a"), (PLUS, "q", "b"), (MINUS, "q", "b")], "q, x"),
])
def test_validate_names_each_extra_entry_once(extra, names):
    # The premise of \x+. x+ at a -> a assumes the entries extra besides
    # x+ : a, which it discharges.  An entry extra on both sides is named
    # once, as the former code, which took the union of two sets of
    # entries, named it; x- : a is extra although x+ : a is discharged.
    d = check(Basis(), PLUS, parse_term("(\\x+. x+)+"), parse_formula("a -> a"))
    p = d.prems[0]
    basis = p.concl.basis
    for pol, name, f in extra:
        basis = basis.extend(name, pol, parse_formula(f))
    grown = dataclasses.replace(p, concl=dataclasses.replace(p.concl, basis=basis))
    m = dataclasses.replace(d, prems=(grown,))
    vs = validate(m)
    assert [v.message for v in vs] == [f"premise 0 assumes more than the conclusion allows: {names}"]
    assert vs == former_validate(m)


def test_validate_dropped_assumption():
    b = Basis.make({"u": Atom("a")})
    d = check(b, PLUS, parse_term("(\\x+. x+)+"), parse_formula("b -> b"))
    p = d.prems[0]
    shrunk = dataclasses.replace(
        p, concl=dataclasses.replace(p.concl, basis=Basis.make({p.concl.term.name: Atom("b")}))
    )
    vs = validate(dataclasses.replace(d, prems=(shrunk,)))
    assert any("drops assumptions" in v.message for v in vs)


def test_validate_shadowing_discharge():
    # binder x+ at formula b while the basis already holds x+ at a
    b = Basis.make({"x": Atom("a")})
    inner = leaf("Hyp+", b.extend("x", PLUS, Atom("b")), PLUS, Var("x", PLUS), Atom("b"))
    d = Derivation(
        "ImpI",
        Judgment(b, PLUS, Lam("x", Var("x", PLUS), PLUS), parse_formula("b -> b")),
        (inner,),
    )
    assert any("already assumed at another formula" in v.message for v in validate(d))


def test_validate_vacuous_discharge_is_fine():
    d = check(Basis(), PLUS, parse_term("(\\x+. top+)+"), parse_formula("a -> top"))
    assert validate(d) == []
    # and the premise basis may carry the unused discharged assumption
    assert d.prems[0].concl.basis.lookup("x", PLUS) == Atom("a")


def test_validate_reports_deep_paths():
    first, _ = load_worked_pair()

    def zap(d, path):
        if not path:
            return dataclasses.replace(d, rule="FooI")
        i, *rest = path
        prems = list(d.prems)
        prems[i] = zap(prems[i], rest)
        return dataclasses.replace(d, prems=tuple(prems))

    vs = validate(zap(first, [0, 1]))
    assert any(v.path == (0, 1) for v in vs)


def test_validate_memory_is_linear_in_depth():
    # Passing each premise its path as a new tuple took memory quadratic in
    # depth (0.91 and 3.12 MB at 400 and 800 levels on Python 3.11, 1.05
    # and 3.51 MB on 3.10).
    def peak(n):
        t, f = Var("y", PLUS), Atom("a")
        for _ in range(n):
            t, f = Inl(t, PLUS), Or(f, Atom("a"))
        d = check(Basis.make({"y": Atom("a")}), PLUS, t, f)
        tracemalloc.start()
        try:
            assert validate(d) == []
            _, top = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return top

    small, large = peak(400), peak(800)
    assert large < 2.5 * small
    assert large < 2_000_000


@hyp.given(st.integers(0, 4000))
@hyp.settings(max_examples=80, deadline=None)
def test_generated_derivations_validate(seed):
    d = gen_derivation(GenConfig(seed=seed, max_height=7))
    assert validate(d) == []
    assert d.rule in RULES
    assert height(d) <= 7


# ------------------------------------------- validate against the former code


def _outcome(violations):
    return violations == [], {v.path for v in violations}


def _nodes(d):
    yield d
    for p in d.prems:
        yield from _nodes(p)


def _other_formulas(f):
    yield Atom("zz")
    if isinstance(f, (And, Or, Imp, CoImp)):
        yield type(f)(f.right, f.left)  # same connective, sides swapped
        yield type(f)(f.left, Atom("zz"))
    else:
        yield Imp(f, f)


def _other_bases(b):
    yield b.extend("zz", PLUS, Atom("zz"))
    yield b.extend("zz", MINUS, Atom("zz"))
    yield Basis()
    for side, pol in ((b.gamma, PLUS), (b.delta, MINUS)):
        if side:
            yield b.extend(side[0][0], pol, Atom("zz"))


def _mutants(d):
    """Each node's rule renamed to every other rule; each premise's
    polarity, term, type or basis tampered with; each premise dropped,
    duplicated, or swapped with another.  Each mutant is the subtree of
    the node it changes, with that node's conclusion unchanged: validating
    a node reads only its subtree, and its parent reads only its
    conclusion, so this stands for validating the whole derivation."""
    for n in _nodes(d):
        for rule in RULES:
            if rule != n.rule:
                yield dataclasses.replace(n, rule=rule)
        kids = n.prems
        for i, p in enumerate(kids):
            j = p.concl
            others = [k.concl.term for k in kids if k is not p] + [n.concl.term, Var("zz", j.pol)]
            tampered = (
                [dataclasses.replace(j, pol=j.pol.flip())]
                + [dataclasses.replace(j, term=t) for t in others]
                + [dataclasses.replace(j, type=f) for f in _other_formulas(j.type)]
                + [dataclasses.replace(j, basis=b) for b in _other_bases(j.basis)]
            )
            for concl in tampered:
                changed = dataclasses.replace(p, concl=concl)
                yield dataclasses.replace(n, prems=kids[:i] + (changed,) + kids[i + 1:])
            yield dataclasses.replace(n, prems=kids[:i] + kids[i + 1:])
            yield dataclasses.replace(n, prems=kids[: i + 1] + kids[i:])
            for k in range(i + 1, len(kids)):
                swapped = list(kids)
                swapped[i], swapped[k] = kids[k], kids[i]
                yield dataclasses.replace(n, prems=tuple(swapped))


def test_validate_matches_former_validate():
    from test_acceptance import REDEX_HEAVY_WEIGHTS
    from test_typecheck import _seeded

    loaded = [derivation_from_json(p.read_text()) for p in sorted(DATA.glob("*.json"))]
    seeded = _seeded(200, {}) + _seeded(200, REDEX_HEAVY_WEIGHTS)
    valid = loaded + seeded + [dual_derivation(d) for d in loaded + seeded]
    for d in valid:
        assert former_validate(d) == [] and validate(d) == []
    mutated = invalid = 0
    for d in loaded + seeded[:60] + seeded[200:260]:
        for base in (d, dual_derivation(d)):
            for m in _mutants(base):
                want = _outcome(former_validate(m))
                assert _outcome(validate(m)) == want
                mutated += 1
                invalid += not want[0]
    assert mutated > 60_000
    assert invalid > 0.9 * mutated
