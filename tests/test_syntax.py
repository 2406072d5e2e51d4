import copy
import gc
import itertools
import os
import pickle
import subprocess
import sys
import tracemalloc
from dataclasses import fields, make_dataclass, replace
from pathlib import Path

import hypothesis as hyp
import hypothesis.strategies as st
import pytest

import l2int
from l2int.derivation import check_polarities
from l2int.meaning import canonical_variable_form
from l2int.syntax import (
    PLUS,
    MINUS,
    Abort,
    And,
    App,
    Basis,
    Atom,
    Bot,
    Case,
    CoImp,
    Falsum,
    Formula,
    Fst,
    Imp,
    Inl,
    Inr,
    Lam,
    MetaVar,
    MPair,
    Or,
    Pair,
    Pi1,
    Pi2,
    PolarityMismatch,
    Snd,
    Top,
    Var,
    Verum,
    alpha_eq,
    alpha_key,
    binders,
    children,
    free_vars,
    fresh_name,
    replace_at,
    subterm_at,
    substitute,
    term_size,
    with_children,
)
from l2int.testkit import GenConfig, gen_derivation
from l2int.textio import parse_term
from former import (
    former_alpha_eq,
    former_basis_extend,
    former_alpha_key,
    former_canonical_variable_form,
    former_free_vars,
    former_substitute,
)


def t(src):
    return parse_term(src)


def test_polarity_flip():
    assert PLUS.flip() is MINUS
    assert MINUS.flip() is PLUS
    assert str(PLUS) == "+"


def test_fixed_polarity_nodes():
    assert Top().pol is PLUS
    assert Bot().pol is MINUS
    assert Pi1(Var("x", MINUS)).pol is PLUS
    assert Pi2(Var("x", PLUS)).pol is MINUS


def test_free_vars_binding():
    term = t("(\\x+. app+(x+, y+))+")
    assert free_vars(term) == {("y", PLUS)}
    case = t("case z+ {x+. x+ | y+. w+}+")
    assert free_vars(case) == {("z", PLUS), ("w", PLUS)}


def test_free_vars_polarity_distinct():
    # x+ and x- are different variables
    term = MPair(Var("x", PLUS), Var("x", MINUS), PLUS)
    assert free_vars(term) == {("x", PLUS), ("x", MINUS)}
    lam = Lam("x", MPair(Var("x", PLUS), Var("x", MINUS), PLUS), PLUS)
    assert free_vars(lam) == {("x", MINUS)}


def test_substitute_basic():
    term = t("app+(f+, x+)")
    out = substitute(term, "x", PLUS, Top())
    assert out == t("app+(f+, top+)")


def test_substitute_respects_polarity():
    term = MPair(Var("x", PLUS), Var("x", MINUS), PLUS)
    out = substitute(term, "x", PLUS, Top())
    assert out == MPair(Top(), Var("x", MINUS), PLUS)
    with pytest.raises(PolarityMismatch):
        substitute(term, "x", PLUS, Bot())


def test_substitute_shadowed_binder_untouched():
    term = t("(\\x+. x+)+")
    assert substitute(term, "x", PLUS, Top()) == term


def test_substitute_avoids_capture():
    # substituting y+ under a y-binder must rename the binder
    term = t("(\\y+. app+(y+, x+))+")
    out = substitute(term, "x", PLUS, Var("y", PLUS))
    assert isinstance(out, Lam)
    assert out.binder == "y1"
    assert out.body == App(Var("y1", PLUS), Var("y", PLUS), PLUS)
    assert alpha_eq(term, substitute(term, "x", PLUS, Var("z", PLUS))) is False
    # the new name avoids the substituted term's free names and the body's
    out = substitute(t("(\\y+. <x+, y2+>+)+"), "x", PLUS, t("<y+, y1+>+"))
    assert out == t("(\\y3+. <<y+, y1+>+, y2+>+)+")


def test_substitute_avoids_capture_in_case():
    term = t("case s+ {y+. app+(y+, x+) | z+. z+}+")
    out = substitute(term, "x", PLUS, Var("y", PLUS))
    assert out.binder1 == "y1"
    assert out.branch1 == App(Var("y1", PLUS), Var("y", PLUS), PLUS)
    assert out.binder2 == "z"


def test_fresh_name_minimal_suffix():
    assert fresh_name("y", set()) == "y"
    assert fresh_name("y", {"y"}) == "y1"
    assert fresh_name("y", {"y", "y1", "y2"}) == "y3"


def test_alpha_eq_renames_bound_only():
    assert alpha_eq(t("(\\x+. x+)+"), t("(\\y+. y+)+"))
    assert not alpha_eq(Var("x", PLUS), Var("y", PLUS))
    assert not alpha_eq(t("(\\x+. x+)+"), t("(\\x-. x-)-"))
    assert alpha_eq(
        t("case z+ {a+. a+ | b+. b+}+"),
        t("case z+ {u+. u+ | v+. v+}+"),
    )
    assert not alpha_eq(t("(\\x+. y+)+"), t("(\\x+. z+)+"))


def test_alpha_eq_distinguishes_shadowing():
    outer_free = App(Var("x", PLUS), Lam("x", Var("x", PLUS), PLUS), PLUS)
    inner_free = App(Var("x", PLUS), Lam("y", Var("x", PLUS), PLUS), PLUS)
    assert not alpha_eq(outer_free, inner_free)


def test_alpha_key_matches_alpha_eq():
    a, b = t("(\\x+. x+)+"), t("(\\y+. y+)+")
    assert alpha_key(a) == alpha_key(b)
    assert alpha_key(a) != alpha_key(t("(\\x-. x-)-"))


def test_check_polarities_accepts_good_terms():
    for src in [
        "(\\x+. x+)+",
        "{top+, bot-}-",
        "case z- {x-. <x-, x-> - | y-. <y-, y-> -}-",
        "abort+(x+)",
        "abort-(x+)",
    ]:
        assert check_polarities(t(src)) == []


def test_check_polarities_reports_paths():
    bad = Pair(Top(), Bot(), PLUS)
    violations = check_polarities(bad)
    assert len(violations) == 1
    assert violations[0].path == ()
    nested = Inl(Pair(Top(), Bot(), PLUS), PLUS)
    assert check_polarities(nested)[0].path == (0,)


def test_check_polarities_mixed_pair_order():
    assert check_polarities(MPair(Var("a", PLUS), Var("b", MINUS), MINUS)) == []
    bad = MPair(Var("a", MINUS), Var("b", PLUS), MINUS)
    assert len(check_polarities(bad)) == 2


def test_check_polarities_app_and_case():
    bad_app = App(Var("f", PLUS), Var("a", MINUS), PLUS)
    assert len(check_polarities(bad_app)) == 1
    bad_case = Case(Var("z", PLUS), "x", Var("u", PLUS), "y", Var("v", MINUS), PLUS)
    assert len(check_polarities(bad_case)) == 1


def test_paths():
    term = t("app+(fst+(a+), snd+(b+))")
    assert subterm_at(term, (0,)) == Fst(Var("a", PLUS), PLUS)
    assert subterm_at(term, (1, 0)) == Var("b", PLUS)
    swapped = replace_at(term, (0, 0), Var("c", PLUS))
    assert subterm_at(swapped, (0, 0)) == Var("c", PLUS)
    assert subterm_at(term, (0, 0)) == Var("a", PLUS)


def test_basis_lookup_and_extend():
    b = Basis.make({"x": Atom("a")}, {"y": Atom("b")})
    assert b.lookup("x", PLUS) == Atom("a")
    assert b.lookup("x", MINUS) is None
    b2 = b.extend("z", MINUS, Atom("c"))
    assert b2.lookup("z", MINUS) == Atom("c")
    assert b.lookup("z", MINUS) is None


def test_basis_entries_sorted():
    b = Basis.make({"b": Atom("a"), "a": Atom("a")})
    assert [n for n, _ in b.gamma] == ["a", "b"]


_BASIS_NAMES = st.sampled_from(["a", "b", "x", "x1", "x10", "x2", "y", "z"])
_BASIS_SIDES = st.dictionaries(_BASIS_NAMES, st.builds(Atom, st.sampled_from(["a", "b", "c"])), max_size=6)


@hyp.given(_BASIS_SIDES, _BASIS_SIDES, _BASIS_NAMES, st.sampled_from([PLUS, MINUS]), st.data())
@hyp.settings(max_examples=300, deadline=None)
def test_basis_extend_matches_former_code(gamma, delta, name, pol, data):
    b = Basis.make(gamma, delta)
    existing = [n for n, _ in b.side(pol)]
    # A new name or, where the side has one, a name it holds already.
    if existing and data.draw(st.booleans()):
        name = data.draw(st.sampled_from(existing))
    f = Atom("new")
    got, want = b.extend(name, pol, f), former_basis_extend(b, name, pol, f)
    assert got.gamma == want.gamma and got.delta == want.delta


@hyp.given(st.integers(0, 2000))
@hyp.settings(max_examples=60, deadline=None)
def test_substitute_self_is_identity(seed):
    term = gen_derivation(GenConfig(seed=seed, max_height=5)).concl.term
    for name, pol in free_vars(term):
        assert substitute(term, name, pol, Var(name, pol)) == term


@hyp.given(st.integers(0, 2000))
@hyp.settings(max_examples=60, deadline=None)
def test_substitute_removes_free_occurrences(seed):
    term = gen_derivation(GenConfig(seed=seed, max_height=5)).concl.term
    for name, pol in free_vars(term):
        replacement = Top() if pol is PLUS else Bot()
        assert (name, pol) not in free_vars(substitute(term, name, pol, replacement))


@hyp.given(st.integers(0, 2000))
@hyp.settings(max_examples=60, deadline=None)
def test_alpha_eq_reflexive_and_size_stable(seed):
    term = gen_derivation(GenConfig(seed=seed, max_height=5)).concl.term
    assert alpha_eq(term, term)
    assert term_size(term) == term_size(substitute(term, "nonexistent", PLUS, Top()))


# ---------------------------------------------------------- formula hashes

FORMULA_CLASSES = (Atom, Falsum, Verum, And, Or, Imp, CoImp, MetaVar)

FORMULAS = st.recursive(
    st.one_of(
        st.builds(Atom, st.sampled_from(["a", "b", "c"])),
        st.builds(MetaVar, st.sampled_from(["A", "B"])),
        st.builds(Falsum),
        st.builds(Verum),
    ),
    lambda sub: st.one_of(*(st.builds(cls, sub, sub) for cls in (And, Or, Imp, CoImp))),
    max_leaves=16,
)

# The formula classes made again with `make_dataclass`: formulas hash,
# pickle and copy as any frozen dataclass does, though the library never
# hashes one.
_PLAIN = {
    cls: make_dataclass(cls.__name__, [f.name for f in fields(cls)], frozen=True)
    for cls in FORMULA_CLASSES
}


def _rebuilt(f, cls_of=type):
    """f built again from its fields: equal, sharing no formula object with
    f, and never hashed."""
    values = (getattr(f, field.name) for field in fields(f))
    args = (_rebuilt(v, cls_of) if isinstance(v, Formula) else v for v in values)
    return cls_of(f)(*args)


@hyp.given(FORMULAS)
def test_formula_hash_is_the_dataclass_hash(f):
    g = _rebuilt(f)
    assert g == f and g is not f
    assert hash(g) == hash(f) == hash(_rebuilt(f, lambda f: _PLAIN[type(f)]))


def test_first_hash_of_a_deep_formula():
    # The generated hash reaches about 490 levels at the default recursion
    # limit.
    f = Atom("a")
    for _ in range(400):
        f = Or(f, Atom("b"))
    assert hash(f) == hash((f.left, f.right))


@hyp.given(FORMULAS)
def test_formula_pickle_and_copy_leave_the_hash_behind(f):
    f = _rebuilt(f)
    protocols = range(pickle.HIGHEST_PROTOCOL + 1)
    pickled = [pickle.dumps(f, p) for p in protocols]
    copies = [vars(copy.copy(f)), vars(copy.deepcopy(f))]
    hash(f)
    assert [pickle.dumps(f, p) for p in protocols] == pickled
    assert [vars(copy.copy(f)), vars(copy.deepcopy(f))] == copies
    for p in protocols:
        g = pickle.loads(pickle.dumps(f, p))
        assert g == f and hash(g) == hash(f)
        assert {f: p}[g] == p


def test_pickled_formula_hashes_afresh_in_another_process():
    # str hashes are salted per process, so a hash kept from this process
    # would be wrong in another one.
    f = And(Atom("a"), Imp(Or(Atom("b"), Verum()), Atom("c")))
    hash(f)
    seed = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(Path(l2int.__file__).parents[1])}
    code = (
        "import pickle, sys\n"
        "from l2int.syntax import And, Atom, Imp, Or, Verum\n"
        "f = pickle.loads(sys.stdin.buffer.read())\n"
        "sys.exit(hash(f) != hash(And(Atom('a'), Imp(Or(Atom('b'), Verum()), Atom('c')))))\n"
    )
    subprocess.run([sys.executable, "-c", code], input=pickle.dumps(f), env=env, check=True)


# -------------------------------------------- alpha_eq against its former code

_NAMES = st.sampled_from(["x", "y", "z"])
_POLS = st.sampled_from([PLUS, MINUS])

# Terms over three names and both polarities, well polarized or not.
TERMS = st.recursive(
    st.one_of(st.builds(Var, _NAMES, _POLS), st.builds(Top), st.builds(Bot)),
    lambda sub: st.one_of(
        *(st.builds(cls, sub, _POLS) for cls in (Abort, Fst, Snd, Inl, Inr)),
        *(st.builds(cls, sub, sub, _POLS) for cls in (Pair, App, MPair)),
        st.builds(Pi1, sub),
        st.builds(Pi2, sub),
        st.builds(Lam, _NAMES, sub, _POLS),
        st.builds(Case, sub, _NAMES, sub, _NAMES, sub, _POLS),
    ),
    max_leaves=12,
)


def _subterm_paths(term, path=()):
    yield path
    for i, c in enumerate(children(term)):
        yield from _subterm_paths(c, path + (i,))


def _tweaked(term, path, name, pol):
    """term with the node at path given the polarity pol, if it has a
    polarity field, or, if it is a variable, the name name."""
    node = subterm_at(term, path)
    if isinstance(node, Var):
        node = Var(name, node.pol)
    elif "pol" in {f.name for f in fields(node)}:
        node = replace(node, pol=pol)
    return replace_at(term, path, node)


def _renamed_binders(term, names):
    """term with every binder renamed to the next of names (fresh ones)."""
    match term:
        case Lam(b, body, p):
            n = next(names)
            return Lam(n, _renamed_binders(substitute(body, b, p, Var(n, p)), names), p)
        case Case(r, x, s, y, u, p):
            q, nx, ny = r.pol, next(names), next(names)
            s = _renamed_binders(substitute(s, x, q, Var(nx, q)), names)
            u = _renamed_binders(substitute(u, y, q, Var(ny, q)), names)
            return Case(_renamed_binders(r, names), nx, s, ny, u, p)
    return with_children(term, tuple(_renamed_binders(c, names) for c in children(term)))


@hyp.given(TERMS, TERMS, st.data())
@hyp.settings(max_examples=400, deadline=None)
def test_alpha_eq_matches_former_alpha_eq(a, b, data):
    path = data.draw(st.sampled_from(list(_subterm_paths(a))))
    tweaked = _tweaked(a, path, data.draw(_NAMES), data.draw(_POLS))
    renamed = _renamed_binders(a, (f"r{i}" for i in itertools.count()))
    for u in (a, b, tweaked, renamed, _renamed_binders(tweaked, (f"r{i}" for i in itertools.count()))):
        assert alpha_eq(a, u) == former_alpha_eq(a, u)
        assert alpha_eq(u, a) == former_alpha_eq(u, a)
    assert alpha_eq(a, renamed)


def _outcome(f, *args):
    try:
        return f(*args)
    except PolarityMismatch as e:
        return str(e)


@hyp.given(TERMS, _NAMES, _POLS, TERMS)
@hyp.settings(max_examples=400, deadline=None)
def test_scoping_matches_former_code(term, name, pol, s):
    assert free_vars(term) == former_free_vars(term)
    assert alpha_key(term) == former_alpha_key(term)
    assert canonical_variable_form(term) == former_canonical_variable_form(term)
    for v in (Var(name, pol), s):
        assert _outcome(substitute, term, name, pol, v) == _outcome(former_substitute, term, name, pol, v)


def test_binders_state_the_scope_of_each_child():
    assert binders(t("(\\x-. y-)-")) == (("x", MINUS),)
    assert binders(t("case z- {x-. top+ | y-. top+}+")) == (None, ("x", MINUS), ("y", MINUS))
    assert binders(t("app+(f+, x+)")) == (None, None)
    assert binders(t("x+")) == binders(t("top+")) == ()
    renamed = with_children(t("case z+ {x+. x+ | y+. y+}+"), (Var("w", PLUS), Top(), Top()), (None, "a", "b"))
    assert renamed == t("case w+ {a+. top+ | b+. top+}+")
    assert with_children(t("(\\x+. x+)+"), (Top(),)) == t("(\\x+. top+)+")


def test_alpha_eq_binder_and_scrutinee_polarity_and_free_names():
    pairs = [
        (t("(\\x+. x+)+"), t("(\\x-. x-)-")),  # binder polarity
        (Lam("x", Var("x", PLUS), PLUS), Lam("x", Var("x", MINUS), PLUS)),
        (t("case z+ {x+. top+ | y+. top+}+"), t("case z- {x-. top+ | y-. top+}+")),
        (t("case z+ {x+. x+ | y+. y+}+"), t("case z- {x-. x+ | y-. y+}+")),
        (t("(\\x+. y+)+"), t("(\\y+. y+)+")),  # free against bound
        (t("(\\x+. x+)+"), t("(\\x+. y+)+")),
        (t("(\\x+. (\\y+. x+)+)+"), t("(\\x+. (\\x+. x+)+)+")),  # shadowing
    ]
    for a, b in pairs:
        assert not former_alpha_eq(a, b)
        assert not alpha_eq(a, b) and not alpha_eq(b, a)


def test_alpha_key_memory_is_linear_in_depth_with_distinct_binders():
    # With a copy of the binder map at each binder, alpha_key took memory
    # quadratic in the number of distinct binder names (0.89, 3.38 and
    # 13.1 MB at 200, 400 and 800 levels).
    def peak(n):
        t = Var("x0", PLUS)
        for i in range(n):
            t = Lam(f"x{i}", t, PLUS)
        gc.collect()  # a full collection empties the free lists, so every allocation is traced
        tracemalloc.start()
        try:
            alpha_key(t)
            _, top = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return top

    # The key and the map of 800 binders (a table of twice the size) come
    # to 2.5 times those of 400; quadratic would be 4.  Under Python 3.10
    # tracemalloc counts the walk's frames as well.
    small, large = peak(400), peak(800)
    assert large < 3 * small
    assert large < 2_000_000


def test_check_polarities_memory_is_linear():
    # One path tuple per node would take about 8 * depth**2 / 2 bytes here
    # (3.2 MB); one path list takes a few hundred bytes per level.
    term = Var("x", PLUS)
    for _ in range(889):
        term = Inl(term, PLUS)
    gc.collect()  # a full collection empties the free lists, so every allocation is traced
    tracemalloc.start()
    try:
        violations = check_polarities(term)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert violations == []
    assert peak < 500 * 889
    bad = Inl(Inl(Var("x", MINUS), PLUS), PLUS)
    assert [(v.path, v.message) for v in check_polarities(bad)] == [
        ((0,), "injection body is -, injection is +")
    ]
