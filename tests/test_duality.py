import random

import hypothesis as hyp
import hypothesis.strategies as st
import pytest

from l2int.derivation import RULES, Derivation, Judgment, height, validate
from l2int.duality import (
    RULE_DUAL,
    InvalidDerivation,
    dual_basis,
    dual_derivation,
    dual_formula,
    dual_term,
)
from l2int.rewrite import RedexPosition, find_redexes, step
from l2int.syntax import (
    PLUS,
    Atom,
    Basis,
    Formula,
    MetaVar,
    MPair,
    Pi1,
    Pi2,
    Term,
    Var,
    subterm_at,
)
from l2int.testkit import GenConfig, gen_basis, gen_derivation, gen_formula
from l2int.textio import (
    derivation_from_json,
    derivation_to_json,
    parse_formula,
    parse_term,
    print_formula,
    print_term,
)
from l2int.typecheck import TypeScheme, check, infer_principal, schemes_equal
from conftest import DATA, WORKED_SECOND_TERM, load_worked_pair
from former import former_dual_formula, former_dual_term
from test_acceptance import REDEX_HEAVY_WEIGHTS
from test_typecheck import _seeded


# ---------------------------------------------------------------- formulas


def dual_of(src: str) -> str:
    return print_formula(dual_formula(parse_formula(src)))


def test_dual_formula_fixes_atoms():
    assert dual_formula(Atom("a")) == Atom("a")
    assert dual_formula(MetaVar("A")) == MetaVar("A")


def test_dual_formula_swaps_constants_and_lattice_ops():
    assert dual_of("top") == "bot"
    assert dual_of("bot") == "top"
    assert dual_of("a & b") == "a | b"
    assert dual_of("a | b") == "a & b"


def test_dual_formula_swaps_arrows_and_sides():
    assert dual_of("a -> b") == "b -< a"
    assert dual_of("b -< a") == "a -> b"


def test_dual_formula_worked_type():
    assert dual_of("(a -< b) -> (top -< (a -> b))") == "((b -< a) -> bot) -< (b -> a)"


# ------------------------------------------------------------------- terms


def test_dual_term_identity_combinator():
    assert print_term(dual_term(parse_term("(\\x+. x+)+"))) == "(\\x-. x-)-"


def test_dual_term_worked_end_term():
    first, _ = load_worked_pair()
    assert print_term(dual_term(first.concl.term)) == WORKED_SECOND_TERM


def test_dual_term_swaps_mixed_pair_components():
    t = parse_term("{u+, w-}+")
    d = dual_term(t)
    assert isinstance(d, MPair)
    assert print_term(d) == "{w+, u-}-"


def test_dual_term_swaps_projections():
    assert print_term(dual_term(parse_term("p1+(x+)"))) == "p2-(x-)"
    assert print_term(dual_term(parse_term("p2-(x-)"))) == "p1+(x+)"
    assert isinstance(dual_term(Pi1(Var("x", PLUS))), Pi2)


def test_dual_term_keeps_names_and_flips_polarity():
    t = parse_term("case z+ {x+. app+(f+, x+) | y+. y+}+")
    d = dual_term(t)
    assert print_term(d) == "case z- {x-. app-(f-, x-) | y-. y-}-"
    assert d.pol is t.pol.flip()


# ------------------------------------------------------------------- bases


def test_dual_basis_swaps_sides():
    b = Basis.make({"x": Atom("a")})
    assert dual_basis(b) == Basis.make(None, {"x": Atom("a")})
    assert dual_basis(Basis()) == Basis()
    both = Basis.make({"x": parse_formula("a -> b")}, {"y": parse_formula("top")})
    d = dual_basis(both)
    assert d.gamma == (("y", parse_formula("bot")),)
    assert d.delta == (("x", parse_formula("b -< a")),)


# ------------------------------------------------------------- involutions


@hyp.given(st.integers(0, 100000))
@hyp.settings(max_examples=100, deadline=None)
def test_dual_formula_involution(seed):
    f = gen_formula(random.Random(seed), max_depth=5)
    assert dual_formula(dual_formula(f)) == f


@hyp.given(st.integers(0, 100000))
@hyp.settings(max_examples=100, deadline=None)
def test_dual_basis_involution(seed):
    b = gen_basis(random.Random(seed))
    assert dual_basis(dual_basis(b)) == b


@hyp.given(st.integers(0, 4000))
@hyp.settings(max_examples=80, deadline=None)
def test_dual_term_involution_is_exact(seed):
    t = gen_derivation(GenConfig(seed=seed, max_height=6)).concl.term
    assert dual_term(dual_term(t)) == t


@hyp.given(st.integers(0, 3000))
@hyp.settings(max_examples=50, deadline=None)
def test_dual_derivation_involution_is_exact(seed):
    d = gen_derivation(GenConfig(seed=seed, max_height=5))
    assert dual_derivation(dual_derivation(d)) == d


# -------------------------------------------------------------- rule table


def test_rule_dual_is_a_involutive_bijection_on_all_rules():
    assert set(RULE_DUAL) == set(RULES)
    assert set(RULE_DUAL.values()) == set(RULES)
    for r in RULES:
        assert RULE_DUAL[RULE_DUAL[r]] == r


def test_rule_dual_pairs():
    table = {
        "Hyp+": "Hyp-", "TopI": "BotI_d", "BotE": "TopE_d",
        "AndI": "OrI_d", "AndE1": "OrE_d1", "AndE2": "OrE_d2",
        "AndI_d1": "OrI1", "AndI_d2": "OrI2", "AndE_d": "OrE",
        "ImpI": "CoImpI_d", "ImpE": "CoImpE_d", "ImpI_d": "CoImpI",
        "ImpE_d1": "CoImpE2", "ImpE_d2": "CoImpE1",
    }
    for k, v in table.items():
        assert RULE_DUAL[k] == v
        assert RULE_DUAL[v] == k


# ------------------------------------------------------------- derivations


def test_dual_derivation_worked_pair_exact_both_ways():
    first, second = load_worked_pair()
    assert dual_derivation(first) == second
    assert dual_derivation(second) == first


def test_dual_derivation_swaps_mixed_pair_premises():
    d = check(Basis(), PLUS, parse_term("{top+, bot-}+"), parse_formula("top -< bot"))
    assert d.rule == "CoImpI"
    assert [p.rule for p in d.prems] == ["TopI", "BotI_d"]
    dd = dual_derivation(d)
    assert dd.rule == "ImpI_d"
    assert [p.rule for p in dd.prems] == ["TopI", "BotI_d"]
    assert print_formula(dd.concl.type) == "top -> bot"
    assert validate(dd) == []


def test_dual_derivation_rejects_unknown_rule():
    import dataclasses

    first, _ = load_worked_pair()
    with pytest.raises(InvalidDerivation):
        dual_derivation(dataclasses.replace(first, rule="FooI"))


def _reference_dual_derivation(d: Derivation) -> Derivation:
    """dual_derivation as it was before its per-call memo: every node
    dualizes its whole basis, its term and its type afresh, with the former
    case-per-constructor dualizations."""
    j = d.concl
    basis = Basis(
        tuple((n, former_dual_formula(f)) for n, f in j.basis.delta),
        tuple((n, former_dual_formula(f)) for n, f in j.basis.gamma),
    )
    concl = Judgment(basis, j.pol.flip(), former_dual_term(j.term), former_dual_formula(j.type))
    prems = tuple(_reference_dual_derivation(p) for p in d.prems)
    if d.rule in ("CoImpI", "ImpI_d"):
        prems = prems[::-1]
    return Derivation(RULE_DUAL[d.rule], concl, prems)


def _formula_pairs(d: Derivation, dd: Derivation):
    """(formula in d, the formula standing for its dual in dd) at every node."""
    j, k = d.concl, dd.concl
    yield from zip((f for _, f in j.basis.gamma), (f for _, f in k.basis.delta))
    yield from zip((f for _, f in j.basis.delta), (f for _, f in k.basis.gamma))
    yield j.type, k.type
    prems = dd.prems[::-1] if d.rule in ("CoImpI", "ImpI_d") else dd.prems
    for p, q in zip(d.prems, prems):
        yield from _formula_pairs(p, q)


def test_dual_derivation_matches_reference():
    loaded = [derivation_from_json(p.read_text()) for p in sorted(DATA.glob("*.json"))]
    seeded = _seeded(200, {}) + _seeded(200, REDEX_HEAVY_WEIGHTS)
    # Loaded copies share each premise's term with their parent's term.
    reloaded = [derivation_from_json(derivation_to_json(d)) for d in seeded]
    shared = 0
    for d in loaded + seeded + reloaded:
        dd, want = dual_derivation(d), _reference_dual_derivation(d)
        assert dd == want
        assert validate(dd) == []
        assert dual_derivation(dd) == d
        assert derivation_to_json(dd) == derivation_to_json(want)
        dual_of = {}  # id of a formula object in d -> its dual in dd
        for f, g in _formula_pairs(d, dd):
            if id(f) in dual_of:
                assert dual_of[id(f)] is g
                shared += not isinstance(f, Atom)  # an atom is its own dual
            else:
                dual_of[id(f)] = g
    assert shared > 10_000


def _objects(d: Derivation) -> list[Formula | Term]:
    """The formula and term objects of every node."""
    j = d.concl
    own = [f for _, f in j.basis.gamma + j.basis.delta] + [j.type, j.term]
    return own + [f for p in d.prems for f in _objects(p)]


def test_dual_derivation_memo_lives_for_one_call():
    for d in _seeded(60, {}):
        first = dual_derivation(d)
        again = dual_derivation(derivation_from_json(derivation_to_json(d)))
        assert again == first
        kept = {id(f) for f in _objects(first)}
        assert not any(id(f) in kept for f in _objects(again))


@hyp.given(st.integers(0, 3000))
@hyp.settings(max_examples=60, deadline=None)
def test_dual_derivation_validates_with_dual_judgment_and_equal_height(seed):
    d = gen_derivation(GenConfig(seed=seed, max_height=6))
    dd = dual_derivation(d)
    assert validate(dd) == []
    assert dd.concl.basis == dual_basis(d.concl.basis)
    assert dd.concl.pol is d.concl.pol.flip()
    assert dd.concl.term == dual_term(d.concl.term)
    assert dd.concl.type == dual_formula(d.concl.type)
    assert height(dd) == height(d)


# ----------------------------------------------- commutation with the rest


def dual_path(t, path):
    """Where the subterm at path lands in dual_term(t)."""
    out = []
    for i in path:
        out.append(1 - i if isinstance(t, MPair) else i)
        t = subterm_at(t, (i,))
    return tuple(out)


_DETAIL_DUAL = {
    "beta-Pi1": "beta-Pi2", "beta-Pi2": "beta-Pi1",
    "perm-Pi1": "perm-Pi2", "perm-Pi2": "perm-Pi1",
    "perm-Case+": "perm-Case-", "perm-Case-": "perm-Case+",
}


def dual_redex(t, r):
    return RedexPosition(dual_path(t, r.path), r.kind, _DETAIL_DUAL.get(r.detail, r.detail))


@hyp.given(st.integers(0, 3000))
@hyp.settings(max_examples=60, deadline=None)
def test_duality_commutes_with_one_step_reduction(seed):
    d = gen_derivation(GenConfig(seed=seed, max_height=6))
    t = d.concl.term
    dt = dual_term(t)
    for r in find_redexes(t):
        mirrored = dual_redex(t, r)
        assert step(dt, mirrored) == dual_term(step(t, r))


@hyp.given(st.integers(0, 2000))
@hyp.settings(max_examples=40, deadline=None)
def test_duality_coheres_with_principal_types(seed):
    d = gen_derivation(GenConfig(seed=seed, max_height=5))
    p = infer_principal(d.concl.term)
    q = infer_principal(dual_term(d.concl.term))
    assert q.pol is p.pol.flip()
    assert schemes_equal(
        q.scheme, TypeScheme(p.scheme.metavariables, dual_formula(p.scheme.body))
    )
