import dataclasses
import functools
import gc
import tracemalloc
from collections import Counter

import hypothesis as hyp
import hypothesis.strategies as st
import pytest

from l2int.derivation import RULE_TABLE, check_polarities, height, validate
from l2int.rewrite import find_redexes, step
from l2int.syntax import (
    PLUS,
    MINUS,
    And,
    App,
    Atom,
    Basis,
    Bot,
    CoImp,
    Falsum,
    Fst,
    Imp,
    Inl,
    Lam,
    MetaVar,
    Or,
    Pi1,
    Pi2,
    Top,
    Var,
    Verum,
    alpha_eq,
    build,
    children,
    metavars_of,
    replace_at,
    subterm_at,
    term_size,
)
from l2int.testkit import GenConfig, GenerationFailed, gen_derivation
from l2int.textio import parse_formula, parse_term, print_formula, print_term
from l2int.typecheck import (
    Clash,
    OccursCheck,
    Substitution,
    TypeMismatch,
    TypeScheme,
    UnboundVariable,
    Untypable,
    _Checker,
    check,
    infer_principal,
    schemes_equal,
    unify,
)
from former import former_check, former_check_polarities, former_infer_principal, former_open_metavariables
from test_acceptance import REDEX_HEAVY_WEIGHTS
from conftest import (
    build_worked_first,
    build_worked_second,
    load_golden,
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
    # two renames on one path: the inner one is decided inside the subtree
    # that renaming the outer one checks again
    b = Basis.make({"x": Atom("a")})
    d = check(b, PLUS, parse_term("(\\x+. (\\x+. x+)+)+"), parse_formula("b -> c -> c"))
    assert validate(d) == []
    assert d.concl.term == parse_term("(\\x1+. (\\x2+. x2+)+)+")


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


# ------------------------------------------------- check against its former code


# check as it was before the one pass: inference, then the tree rebuilt
# from the node types it stored.
_reference_check = former_check


def _pass_makes_metavariables(basis, pol, t, a):
    c = _Checker()
    c.go(t, basis, a)
    return c.count > 0


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
    judgments = pinned = made = 0
    for d in _seeded(200, weights):
        j = d.concl
        terms = [j.term] + [step(j.term, r) for r in find_redexes(j.term)]
        for t in terms:
            got = check(j.basis, j.pol, t, j.type)
            assert got == _reference_check(j.basis, j.pol, t, j.type)
            assert validate(got) == []
            # No binder is renamed here, so the term is t itself, which
            # reduce's alpha_eq test of the two finds at once.
            assert got.concl.term is t
            judgments += 1
            pinned += former_open_metavariables(j.basis, j.pol, t, j.type) > 0
            made += _pass_makes_metavariables(j.basis, j.pol, t, j.type)
    assert judgments > 350
    assert pinned > 20
    assert made > 100


def _outcome(run, basis, pol, t, a):
    """The derivation run builds, or the class, text and path of its error."""
    try:
        return run(basis, pol, t, a)
    except (TypeMismatch, Untypable, UnboundVariable) as e:
        return type(e), str(e), getattr(e, "path", None)


def _atom_swapped(f):
    """f with its first atom renamed, or None if it has no atom."""
    if isinstance(f, Atom):
        return Atom(f.name + "z")
    if isinstance(f, (And, Or, Imp, CoImp)):
        left = _atom_swapped(f.left)
        if left is not None:
            return type(f)(left, f.right)
        right = _atom_swapped(f.right)
        return None if right is None else type(f)(f.left, right)
    return None


def _flipped(t):
    """t with its own polarity flipped: a constant or a projection of a
    mixed pair becomes its dual."""
    swap = {Top: Bot, Bot: Top, Pi1: Pi2, Pi2: Pi1}
    if type(t) in swap:
        return swap[type(t)](*children(t))
    return dataclasses.replace(t, pol=t.pol.flip())


def _mutants(j):
    """Judgments near j that check rejects, mostly: a wrong target, an
    atom swapped in the target or in a basis entry, a subterm's polarity
    flipped (a polarity violation, or a mismatch at the root) and a free
    variable renamed out of the basis."""
    yield j.basis, j.pol, j.term, Atom("zz")
    yield j.basis, j.pol, j.term, Imp(j.type, j.type)
    yield j.basis, j.pol, j.term, Or(j.type, Verum())
    swapped = _atom_swapped(j.type)
    if swapped is not None:
        yield j.basis, j.pol, j.term, swapped
    for n, f in j.basis.gamma[:1]:
        if _atom_swapped(f) is not None:
            yield j.basis.extend(n, PLUS, _atom_swapped(f)), j.pol, j.term, j.type
    paths = list(_paths(j.term))
    for path in paths[:: max(1, len(paths) // 4)]:
        yield j.basis, j.pol, replace_at(j.term, path, _flipped(subterm_at(j.term, path))), j.type
    for path in paths:
        v = subterm_at(j.term, path)
        if isinstance(v, Var) and j.basis.lookup(v.name, v.pol) is not None:
            yield j.basis, j.pol, replace_at(j.term, path, Var("unassumed", v.pol)), j.type
            break


def _paths(t, path=()):
    yield path
    for i, c in enumerate(children(t)):
        yield from _paths(c, path + (i,))


def test_check_mismatch_message_matches_reference():
    raised = Counter()
    for d in _seeded(40, {}) + _seeded(20, REDEX_HEAVY_WEIGHTS):
        for args in _mutants(d.concl):
            got = _outcome(check, *args)
            assert got == _outcome(_reference_check, *args)
            if isinstance(got, tuple):
                raised[got[0]] += 1
    assert raised[TypeMismatch] > 60
    assert raised[Untypable] > 30
    assert raised[UnboundVariable] > 20


# Small terms whose every node has its children at the polarities its rule
# asks for, over three names that the basis may assume and binders may
# shadow, with aborts and free variables.
_NAMES = st.sampled_from(["x", "y", "z"])
_SMALL_FORMULAS = st.recursive(
    st.sampled_from([Atom("a"), Atom("b"), Verum(), Falsum()]),
    lambda sub: st.builds(lambda c, a, b: c(a, b), st.sampled_from([And, Or, Imp, CoImp]), sub, sub),
    max_leaves=4,
)


@st.composite
def _polarized(draw, pol, depth=4):
    rules = [r for r in RULE_TABLE.values() if r.prems and r.pol in (pol, None)]
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        leaf = draw(st.sampled_from(["var", "var", "constant"]))
        return Var(draw(_NAMES), pol) if leaf == "var" else (Top() if pol is PLUS else Bot())
    rule = draw(st.sampled_from(rules))
    parts = []
    for p in rule.prems:
        if p.binds is not None:
            parts.append(draw(_NAMES))
        parts.append(draw(_polarized(pol if p.pol is None else p.pol, depth - 1)))
    return build(rule.ctor, parts, pol)


@st.composite
def _judgments(draw):
    """A basis, a polarity, a term and a target.  Half of the bases and
    targets instantiate the term's principal typing, where it has one, with
    entries added for other names, which binders may shadow; the others
    are drawn, with half of their targets the type the reference finds."""
    pol = draw(st.sampled_from([PLUS, MINUS]))
    t = draw(_polarized(pol))
    sides = [draw(st.dictionaries(_NAMES, _SMALL_FORMULAS, max_size=3)) for _ in range(2)]
    try:
        p = infer_principal(t)
    except Untypable:
        p = None
    if p is not None and draw(st.booleans()):
        held = [f for _, f in p.basis.gamma + p.basis.delta]
        s = Substitution({m: draw(_SMALL_FORMULAS) for m in metavars_of(p.scheme.body, *held)})
        for side, entries in zip(sides, (p.basis.gamma, p.basis.delta)):
            side.update((n, s.apply(f)) for n, f in entries)
        return Basis.make(*sides), pol, t, s.apply(p.scheme.body)
    basis = Basis.make(*sides)
    a = draw(_SMALL_FORMULAS)
    if draw(st.booleans()):
        found = _outcome(_reference_check, basis, pol, t, MetaVar("target"))
        if not isinstance(found, tuple):
            a = found.concl.type
    return basis, pol, t, a


@hyp.given(_judgments())
@hyp.settings(max_examples=400, deadline=None)
def test_check_of_small_terms_matches_reference(args):
    assert _outcome(check, *args) == _outcome(_reference_check, *args)


def test_check_rejects_metavariables_in_its_inputs():
    # Metavariables are output-only: a judgment that holds one in its
    # target or basis is not checked, whatever else is wrong with it.  ?m1
    # is also the name of the first metavariable check's pass makes.
    t = parse_term("fst+(<abort+(z-), x+>+)")
    judgments = [
        (Basis.make({"x": MetaVar(n)}, {"z": Verum()}), PLUS, t, Atom("a"), "?" + n) for n in ("q", "m1")
    ]
    for d in _seeded(40, {}) + _seeded(20, REDEX_HEAVY_WEIGHTS):
        j = d.concl
        judgments.append((j.basis, j.pol, j.term, MetaVar("T"), "?T"))
        for n, _ in j.basis.gamma[:1]:
            judgments.append((j.basis.extend(n, PLUS, MetaVar("G")), j.pol, j.term, j.type, "?G"))
    for basis, pol, t, a, name in judgments:
        for p in (pol, pol.flip()):
            with pytest.raises(ValueError, match=rf"\{name}\b"):
                check(basis, p, t, a)
    assert len(judgments) > 80


# -------------------------------------------------------------- shadowing


def test_check_keeps_a_binder_at_an_equal_basis_formula_on_the_fast_path():
    # The basis holds x+ at an a that is not the target's: nothing is
    # renamed, so the pass marks no node and check takes no resolving walk.
    basis = Basis.make({"x": Atom("a")})
    t, a = parse_term("(\\x+. x+)+"), Imp(Atom("a"), Atom("a"))
    assert basis.lookup("x", PLUS) is not a.left
    c = _Checker()
    c.go(t, basis, a)
    assert c.made == set() and c.count == 0
    d = check(basis, PLUS, t, a)
    assert d == _reference_check(basis, PLUS, t, a)
    assert d.concl.term is t and validate(d) == []


def test_check_decides_a_rename_on_the_resolved_formula():
    # The second binder's formula is open when the pass meets it, since the
    # injection leaves its other side open; the branch then fixes it.
    basis = Basis.make({"y": Atom("a"), "w": Falsum()})
    t = parse_term("case inl+(top+) {x+. abort+(w+) | y+. y+}+")
    kept = check(basis, PLUS, t, Atom("a"))
    assert kept.concl.term is t
    assert kept == _reference_check(basis, PLUS, t, Atom("a"))
    renamed = check(basis, PLUS, t, Atom("b"))
    assert renamed.concl.term == parse_term("case inl+(top+) {x+. abort+(w+) | y1+. y1+}+")
    assert renamed == _reference_check(basis, PLUS, t, Atom("b"))
    # Left open, the formula becomes top, which the basis does not hold.
    t = parse_term("case inl+(top+) {x+. abort+(w+) | y+. abort+(w+)}+")
    pinned = check(basis, PLUS, t, Atom("a"))
    assert pinned.concl.term == parse_term("case inl+(top+) {x+. abort+(w+) | y1+. abort+(w+)}+")
    assert pinned == _reference_check(basis, PLUS, t, Atom("a"))
    # The pass renames the inner binder y-, which shadows y- at b.  Renaming
    # y+ afterwards must start again from the branch as written, where y-
    # then avoids y1 too, as the reference's rebuild did.
    basis = Basis.make(
        {"y": Atom("c"), "w": Falsum(), "f": parse_formula("(a -< (d -< e)) -> a")},
        {"y": Atom("b"), "k": Atom("d")},
    )
    t = parse_term("case inl+(top+) {x+. abort+(w+) | y+. app+(f+, {y+, (\\y-. k-)-}+)}+")
    inner = check(basis, PLUS, t, Atom("a"))
    assert print_term(inner.concl.term) == "case inl+(top+) {x+. abort+(w+) | y1+. app+(f+, {y1+, (\\y2-. k-)-}+)}+"
    assert inner == _reference_check(basis, PLUS, t, Atom("a"))
    for d in (kept, renamed, pinned, inner):
        assert validate(d) == []


def test_check_memory_is_linear_in_depth():
    # Keyed by path, the former node types took memory quadratic in depth
    # (0.57, 1.74 and 6.06 MB at 200, 400 and 800 levels).
    def peak(n):
        t, f = Var("y", PLUS), Atom("a")
        for _ in range(n):
            t, f = Inl(t, PLUS), Or(f, Atom("a"))
        basis = Basis.make({"y": Atom("a")})
        gc.collect()  # a full collection empties the free lists, so every allocation is traced
        tracemalloc.start()
        try:
            d = check(basis, PLUS, t, f)
            _, top = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert d.concl.term is t
        return top

    small, large = peak(400), peak(800)
    assert large < 2.5 * small
    assert large < 1_000_000


# ------------------------------------ inference against its former code

# infer_principal and check_polarities as they were before the rule table
# drove them, a case per constructor; former_check replays that inference.


def _inferred(t):
    """What infer_principal and its former code give t: the principal
    judgment, or the class, text, path and cause of the error."""
    out = []
    for infer in (infer_principal, former_infer_principal):
        try:
            out.append(infer(t))
        except Untypable as e:
            out.append((type(e), str(e), e.path, type(e.__cause__)))
    return out


def _ill_typed(t, path):
    """t with the subterm at path applied to itself (an occurs check, or a
    clash where its formula is known), swapped for the constant of its
    polarity, and with its polarity flipped."""
    u = subterm_at(t, path)
    yield replace_at(t, path, App(u, u, u.pol))
    yield replace_at(t, path, Top() if u.pol is PLUS else Bot())
    yield replace_at(t, path, _flipped(u))


@functools.cache
def _inference_corpus():
    """The golden derivations and 200 standard and 200 redex-heavy ones."""
    return load_golden() + _seeded(200, {}) + _seeded(200, REDEX_HEAVY_WEIGHTS)


def test_inference_matches_former_code_on_the_corpus():
    # Every subterm of each end term and each one-step reduct.
    compared = 0
    for d in _inference_corpus():
        t = d.concl.term
        for u in [subterm_at(t, path) for path in _paths(t)] + [step(t, r) for r in find_redexes(t)]:
            new, old = _inferred(u)
            assert new == old
            assert check_polarities(u) == former_check_polarities(u) == []
            compared += 1
    assert compared > 4500


def test_inference_and_replay_match_former_code_on_ill_typed_mutants():
    # check's pass rejects each judgment, so its replay of inference raises;
    # under the empty basis, an UnboundVariable where the term has a free
    # variable.
    raised = Counter()
    for d in _inference_corpus():
        j = d.concl
        paths = list(_paths(j.term))
        for path in paths[:: max(1, len(paths) // 3)]:
            for t in _ill_typed(j.term, path):
                new, old = _inferred(t)
                assert new == old
                assert check_polarities(t) == former_check_polarities(t)
                if isinstance(new, tuple):
                    raised[new[3].__name__] += 1
                for basis in (j.basis, Basis()):
                    got = _outcome(check, basis, j.pol, t, j.type)
                    assert got == _outcome(_reference_check, basis, j.pol, t, j.type)
                    if isinstance(got, tuple):
                        raised[got[0].__name__] += 1
    assert raised["Clash"] > 500
    assert raised["OccursCheck"] > 600
    assert raised["NoneType"] > 600  # a polarity violation
    assert raised["UnboundVariable"] > 1300
    assert raised["TypeMismatch"] > 1100


@st.composite
def _mutated(draw):
    """A term of the small-term strategy, over all 15 constructors, left
    as it is or mutated at a drawn subterm as `_ill_typed` mutates."""
    t = draw(_polarized(draw(st.sampled_from([PLUS, MINUS]))))
    paths = list(_paths(t))
    mutants = [t, *_ill_typed(t, draw(st.sampled_from(paths)))]
    return draw(st.sampled_from(mutants))


@hyp.given(_mutated(), st.dictionaries(_NAMES, _SMALL_FORMULAS, max_size=3), _SMALL_FORMULAS)
@hyp.settings(max_examples=300, deadline=None)
def test_inference_and_replay_match_former_code_on_small_terms(t, gamma, a):
    new, old = _inferred(t)
    assert new == old
    assert check_polarities(t) == former_check_polarities(t)
    basis = Basis.make(gamma)
    assert _outcome(check, basis, t.pol, t, a) == _outcome(_reference_check, basis, t.pol, t, a)


def test_inference_memory_is_linear_in_depth():
    # With a path tuple per node, infer_principal, and check's replay of it
    # on a wrong target, took memory quadratic in depth (0.22, 0.75 and 2.79
    # MB at 200, 400 and 800 levels).
    basis = Basis.make({"y": Atom("a")})

    def wrong_target(t):
        with pytest.raises(TypeMismatch):
            check(basis, PLUS, t, Atom("b"))

    def peak(run, n):
        t = Var("y", PLUS)
        for _ in range(n):
            t = Inl(t, PLUS)
        gc.collect()  # a full collection empties the free lists, so every allocation is traced
        tracemalloc.start()
        try:
            run(t)
            _, top = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return top

    for run in (infer_principal, wrong_target):
        small, large = peak(run, 400), peak(run, 800)
        assert large < 2.5 * small
        assert large < 1_000_000


def test_inference_memory_is_linear_in_depth_with_distinct_binders():
    # With a copy of the scope at each binder, the walk behind
    # infer_principal, and check's replay of it on a wrong target, took
    # memory quadratic in the number of distinct binder names (0.91, 3.42 and
    # 13.2 MB at 200, 400 and 800 levels of infer_principal).
    def wrong_target(t):
        with pytest.raises(TypeMismatch):
            check(Basis(), PLUS, t, Atom("b"))

    def peak(run, n):
        t = Var("x0", PLUS)
        for i in range(n):
            t = Lam(f"x{i}", t, PLUS)
        gc.collect()  # a full collection empties the free lists, so every allocation is traced
        tracemalloc.start()
        try:
            run(t)
            _, top = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return top

    # Under Python 3.10 tracemalloc counts the walk's frames as well
    # (1.07 MB at 800 levels of infer_principal, against 0.49 MB under 3.11).
    for run in (infer_principal, wrong_target):
        small, large = peak(run, 400), peak(run, 800)
        assert large < 2.5 * small
        assert large < 2_000_000
