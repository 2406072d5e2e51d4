import hypothesis as hyp
import hypothesis.strategies as st
import pytest

from l2int.derivation import height, validate
from l2int.rewrite import find_redexes, step
from l2int.syntax import (
    PLUS,
    MINUS,
    And,
    Atom,
    Basis,
    CoImp,
    Fst,
    Imp,
    MetaVar,
    Or,
    Var,
    Verum,
    alpha_eq,
    check_polarities,
    metavars_of,
    term_size,
)
from l2int.testkit import GenConfig, GenerationFailed, gen_derivation
from l2int.textio import parse_formula, parse_term, print_formula
from l2int.typecheck import (
    Clash,
    OccursCheck,
    TypeMismatch,
    TypeScheme,
    UnboundVariable,
    Untypable,
    UnifyError,
    _build,
    _Ctx,
    _infer,
    _unify,
    check,
    infer_principal,
    schemes_equal,
    unify,
)
from test_acceptance import REDEX_HEAVY_WEIGHTS
from conftest import (
    WORKED_FIRST_TERM,
    WORKED_FIRST_TYPE,
    build_worked_first,
    build_worked_second,
    load_worked_pair,
)


# ------------------------------------------------------------------- unify


def test_unify_binds_metavariable():
    s = unify(MetaVar("X"), parse_formula("a -> b"))
    assert s.apply(MetaVar("X")) == parse_formula("a -> b")


def test_unify_structural():
    s = unify(parse_formula("a & b"), And(MetaVar("X"), MetaVar("Y")))
    assert s.apply(MetaVar("X")) == Atom("a")
    assert s.apply(MetaVar("Y")) == Atom("b")


def test_unify_clash():
    with pytest.raises(Clash):
        unify(parse_formula("a"), parse_formula("b"))
    with pytest.raises(Clash):
        unify(parse_formula("a & b"), parse_formula("a | b"))
    with pytest.raises(Clash):
        unify(parse_formula("top"), parse_formula("bot"))


def test_unify_occurs_check():
    with pytest.raises(OccursCheck):
        unify(MetaVar("X"), Imp(MetaVar("X"), Atom("a")))
    with pytest.raises(OccursCheck):
        unify(Imp(MetaVar("X"), MetaVar("Y")), Imp(MetaVar("Y"), Imp(MetaVar("X"), Atom("a"))))


def test_unify_same_metavar_is_fine():
    assert unify(MetaVar("X"), MetaVar("X")).mapping == {}


# --------------------------------------------------------- infer_principal


def infer_str(src: str) -> tuple[Basis, str, str]:
    p = infer_principal(parse_term(src))
    return p.basis, str(p.pol), print_formula(p.scheme.body)


def test_infer_identity():
    basis, pol, ty = infer_str("(\\x+. x+)+")
    assert basis.is_empty()
    assert pol == "+"
    assert ty == "?A -> ?A"


def test_infer_self_application_untypable():
    with pytest.raises(Untypable) as e:
        infer_principal(parse_term("app+(x+, x+)"))
    assert "root" in str(e.value)


def test_infer_projection_basis():
    basis, pol, ty = infer_str("fst+(x+)")
    assert basis.gamma == (("x", And(MetaVar("A"), MetaVar("B"))),)
    assert basis.delta == ()
    assert ty == "?A"


def test_infer_negative_lambda():
    basis, pol, ty = infer_str("(\\x-. x-)-")
    assert basis.is_empty()
    assert pol == "-"
    assert ty == "?A -< ?A"


def test_infer_mixed_pair():
    _, pol, ty = infer_str("{x+, y-}+")
    assert pol == "+"
    assert ty == "?A -< ?B"
    _, pol, ty = infer_str("{x+, y-}-")
    assert pol == "-"
    assert ty == "?A -> ?B"


def test_infer_projections_follow_body_polarity():
    basis, _, ty = infer_str("p1+(x+)")
    assert basis.gamma == (("x", CoImp(MetaVar("A"), MetaVar("B"))),)
    assert ty == "?A"
    basis, _, ty = infer_str("p2-(x+)")
    assert basis.gamma == (("x", CoImp(MetaVar("A"), MetaVar("B"))),)
    assert ty == "?B"
    basis, _, ty = infer_str("p1+(x-)")
    assert basis.delta == (("x", Imp(MetaVar("A"), MetaVar("B"))),)
    assert ty == "?A"


def test_infer_case_merges_branches():
    basis, pol, ty = infer_str("case z+ {x+. x+ | y+. y+}+")
    assert basis.gamma == (("z", Or(MetaVar("A"), MetaVar("A"))),)
    assert ty == "?A"


def test_infer_same_name_both_polarities():
    basis, _, _ = infer_str("{x+, x-}+")
    assert [n for n, _ in basis.gamma] == ["x"]
    assert [n for n, _ in basis.delta] == ["x"]


def test_infer_canonical_metavariable_order():
    # gamma entries (sorted by name) are renamed before the body
    basis, _, ty = infer_str("app+(f+, x+)")
    assert basis.gamma == (
        ("f", Imp(MetaVar("A"), MetaVar("B"))),
        ("x", MetaVar("A")),
    )
    assert ty == "?B"


def test_infer_abort_is_polymorphic():
    basis, pol, ty = infer_str("abort+(x+)")
    assert basis.gamma == (("x", parse_formula("bot")),)
    assert ty == "?A"
    basis, pol, ty = infer_str("abort-(x-)")
    assert basis.delta == (("x", parse_formula("top")),)
    assert ty == "?A"


def test_infer_rejects_polarity_violations_first():
    # Fst at + must project a proof, not a refutation
    with pytest.raises(Untypable):
        infer_principal(Fst(Var("x", MINUS), PLUS))


def test_schemes_equal_modulo_renaming():
    a = TypeScheme(("A", "B"), Imp(MetaVar("A"), MetaVar("B")))
    b = TypeScheme(("Q", "R"), Imp(MetaVar("Q"), MetaVar("R")))
    c = TypeScheme(("A",), Imp(MetaVar("A"), MetaVar("A")))
    assert schemes_equal(a, b)
    assert not schemes_equal(a, c)
    assert not schemes_equal(b, c)


# ------------------------------------------------------------------- check


def test_check_worked_example():
    d = build_worked_first()
    assert validate(d) == []
    frozen, _ = load_worked_pair()
    assert d == frozen


def test_check_rejects_unbound_variable():
    with pytest.raises(UnboundVariable):
        check(Basis(), PLUS, parse_term("x+"), parse_formula("a"))


def test_check_rejects_wrong_polarity():
    with pytest.raises(TypeMismatch):
        check(Basis(), MINUS, parse_term("top+"), parse_formula("top"))


def test_check_rejects_wrong_type():
    b = Basis.make({"x": Atom("a")})
    with pytest.raises(TypeMismatch):
        check(b, PLUS, parse_term("x+"), parse_formula("b"))
    with pytest.raises(TypeMismatch):
        check(Basis(), PLUS, parse_term("(\\x+. x+)+"), parse_formula("a -> b"))


def test_check_pins_residual_metavariables_to_verum():
    b = Basis.make({"w": parse_formula("bot")})
    d = check(b, PLUS, parse_term("fst+(<top+, abort+(w+)>+)"), parse_formula("top"))
    assert validate(d) == []
    pair = d.prems[0]
    assert pair.concl.type == And(Verum(), Verum())


def test_check_allows_unused_assumptions():
    b = Basis.make({"u": Atom("a")}, {"w": Atom("b")})
    d = check(b, PLUS, parse_term("top+"), parse_formula("top"))
    assert validate(d) == []
    assert d.concl.basis == b


def test_check_renames_shadowing_binder():
    b = Basis.make({"x": Atom("a")})
    d = check(b, PLUS, parse_term("(\\x+. x+)+"), parse_formula("b -> b"))
    assert validate(d) == []
    lam = d.concl.term
    assert lam.binder != "x"
    assert alpha_eq(lam, parse_term("(\\x+. x+)+"))
    # the new name is not assumed in the basis either
    b = Basis.make({"x": Atom("a"), "x1": Atom("b")})
    d = check(b, PLUS, parse_term("(\\x+. x+)+"), parse_formula("c -> c"))
    assert validate(d) == []
    assert d.concl.term == parse_term("(\\x2+. x2+)+")


def test_check_renames_a_shadowing_binder_its_body_does_not_use():
    # Renaming leaves such a body the same object; the binder must change all
    # the same.
    cases = [
        (Basis.make({"x": Atom("a")}), "(\\x+. top+)+", "b -> top"),
        (Basis.make(None, {"y": parse_formula("b & c")}), "case y- {y-. top+ | z-. top+}+", "top"),
    ]
    for basis, src, typ in cases:
        t = parse_term(src)
        d = check(basis, PLUS, t, parse_formula(typ))
        assert validate(d) == []
        assert d.concl.term != t and alpha_eq(d.concl.term, t)


def test_check_keeps_binder_matching_basis_formula():
    b = Basis.make({"x": Atom("a")})
    d = check(b, PLUS, parse_term("(\\x+. x+)+"), parse_formula("a -> a"))
    assert d.concl.term == parse_term("(\\x+. x+)+")


def test_check_worked_second_height_and_type():
    d = build_worked_second()
    assert validate(d) == []
    assert height(d) == 4
    assert print_formula(d.concl.type) == "((b -< a) -> bot) -< (b -> a)"


def test_check_case_negative_scrutinee():
    b = Basis.make({"w": parse_formula("bot")}, {"z": parse_formula("a & b")})
    d = check(b, MINUS, parse_term("case z- {x-. x- | y-. abort-(w+)}-"),
              parse_formula("a"))
    assert validate(d) == []
    assert d.rule == "AndE_d"


# ------------------------------------------------------ generated validity


@hyp.given(st.integers(0, 4000))
@hyp.settings(max_examples=80, deadline=None)
def test_generated_derivations_recheck(seed):
    d = gen_derivation(GenConfig(seed=seed, max_height=6))
    j = d.concl
    again = check(j.basis, j.pol, j.term, j.type)
    assert again.concl == j
    assert validate(again) == []


@hyp.given(st.integers(0, 4000))
@hyp.settings(max_examples=80, deadline=None)
def test_principal_scheme_instantiates_to_checked_type(seed):
    d = gen_derivation(GenConfig(seed=seed, max_height=5))
    if d.concl.basis.gamma or d.concl.basis.delta:
        return
    p = infer_principal(d.concl.term)
    s = unify(p.scheme.body, d.concl.type)
    assert s.apply(p.scheme.body) == d.concl.type


# ------------------------------------------- check against its former resolution


def _reference_check(basis, pol, t, a):
    """check() resolving types the way it did before it memoised: pin every
    open metavariable to top in the substitution, then apply the whole
    substitution at each node.  Returns the derivation and how many
    metavariables were pinned."""
    for v in check_polarities(t):
        raise Untypable(v.message, v.path)
    if pol is not t.pol:
        raise TypeMismatch(f"term is {t.pol} but the judgment wants {pol}")
    cx = _Ctx(seeded=basis)
    got = _infer(t, (), {}, cx)
    try:
        _unify(got, a, cx.subst)
    except UnifyError as e:
        raise TypeMismatch(
            f"term has type {print_formula(cx.subst.apply(got))}, not {print_formula(a)}"
        ) from e
    pinned = 0
    for f in list(cx.node_type.values()) + list(cx.free.values()):
        for n in metavars_of(cx.subst.apply(f)):
            cx.subst.mapping[n] = Verum()
            pinned += 1
    # Node types already resolved leave check's own resolution nothing to do.
    ground = _Ctx(node_type={p: cx.subst.apply(f) for p, f in cx.node_type.items()})
    return _build(t, (), basis, ground), pinned


def _seeded(count, weights):
    """The first count derivations of height at most 8 whose end term has
    at most 60 nodes (larger redex-heavy ones cost up to seconds each)."""
    out, seed = [], 0
    while len(out) < count:
        try:
            d = gen_derivation(GenConfig(seed=seed, max_height=8, rule_weights=weights))
        except GenerationFailed:
            d = None
        if d is not None and term_size(d.concl.term) <= 60:
            out.append(d)
        seed += 1
    return out


@pytest.mark.parametrize("weights", [{}, REDEX_HEAVY_WEIGHTS], ids=["standard", "redex-heavy"])
def test_check_matches_reference_resolution(weights):
    judgments = 0
    pinned = 0
    for d in _seeded(200, weights):
        j = d.concl
        terms = [j.term] + [step(j.term, r) for r in find_redexes(j.term)]
        for t in terms:
            want, n = _reference_check(j.basis, j.pol, t, j.type)
            assert check(j.basis, j.pol, t, j.type) == want
            judgments += 1
            pinned += n > 0
    assert judgments > 350
    assert pinned > 20


def test_check_mismatch_message_matches_reference():
    raised = 0
    for d in _seeded(40, {}):
        j = d.concl
        for wrong in (Atom("zz"), Imp(j.type, j.type), Or(j.type, Verum())):
            try:
                got = check(j.basis, j.pol, j.term, wrong)
            except TypeMismatch as e:
                with pytest.raises(TypeMismatch) as ref:
                    _reference_check(j.basis, j.pol, j.term, wrong)
                assert str(ref.value) == str(e)
                raised += 1
            else:
                assert got == _reference_check(j.basis, j.pol, j.term, wrong)[0]
    assert raised > 60
