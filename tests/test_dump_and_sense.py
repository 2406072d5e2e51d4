"""The JSON writer and the one-pass `sense` against the code they replace.

`derivation_to_json` must write, byte for byte, what `json.dumps` made of
the former tree of strings, in both layouts; `sense` must give what a
principal scheme inferred per node gave, and raise the same error where
that did.  The references are in `former.py`.
"""

import functools
import json

import hypothesis as hyp
import hypothesis.strategies as st
import pytest

from l2int.derivation import Derivation, Judgment
from l2int.duality import dual_derivation
from l2int.meaning import SenseDescriptor, canonical_variable_form, sense
from l2int.rewrite import find_redexes, step
from l2int.syntax import (
    MINUS,
    PLUS,
    Abort,
    And,
    App,
    Atom,
    Basis,
    Bot,
    Case,
    CoImp,
    Falsum,
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
    Snd,
    Top,
    Var,
    Verum,
    binders,
    children,
    with_children,
)
from l2int.textio import derivation_from_json, derivation_to_json, parse_formula, parse_term, print_formula
from l2int.typecheck import TypeScheme, check, infer_principal
from conftest import load_golden
from former import former_derivation_to_json, former_derivation_to_obj, former_print_formula, former_sense
from test_acceptance import REDEX_HEAVY_WEIGHTS
from test_syntax import FORMULAS, TERMS
from test_typecheck import _seeded


@functools.cache
def _corpus() -> tuple[Derivation, ...]:
    """The golden derivations, 200 standard and 200 redex-heavy ones, and
    the dual of each."""
    ds = load_golden() + _seeded(200, {}) + _seeded(200, REDEX_HEAVY_WEIGHTS)
    return tuple(ds + [dual_derivation(d) for d in ds])


# ------------------------------------------------------------ the writer


def test_dump_matches_json_dumps_on_the_corpus():
    for d in _corpus():
        for indent in (2, None):
            assert derivation_to_json(d, indent) == former_derivation_to_json(d, indent)


def test_dump_matches_json_dumps_at_other_indents():
    for d in _corpus()[:40]:
        for indent in (0, 1, 4):
            assert derivation_to_json(d, indent) == former_derivation_to_json(d, indent)


# Strings that json.dumps escapes (quotes, backslashes, control and
# non-ASCII characters, one outside the BMP), mixed with plain ones.
_SPECIAL = '"\\/\n\r\t\b\f\x00\x1f\x7f é€λ😀'
_TEXT = st.text(st.one_of(st.sampled_from(_SPECIAL), st.characters()), max_size=5)


def _atoms_named(f, names):
    """f with its atoms renamed to names, in turn."""
    if isinstance(f, Atom):
        return Atom(next(names))
    if isinstance(f, (And, Or, Imp, CoImp)):
        return type(f)(_atoms_named(f.left, names), _atoms_named(f.right, names))
    return f


def _vars_named(t, names):
    """t with each variable and binder renamed to names, in turn."""
    if isinstance(t, Var):
        return Var(next(names), t.pol)
    kids = [_vars_named(c, names) for c in children(t)]
    return with_children(t, kids, [b and next(names) for b in binders(t)])


@st.composite
def _odd_derivations(draw, depth=0):
    """A derivation tree, valid or not, whose every string (rule, basis
    names, atoms, variables and binders) may need escaping."""
    names = iter(draw(st.lists(_TEXT, min_size=30, max_size=30)) * 2)
    side = st.dictionaries(_TEXT, FORMULAS, max_size=2)
    basis = Basis.make(
        {n: _atoms_named(f, names) for n, f in draw(side).items()},
        {n: _atoms_named(f, names) for n, f in draw(side).items()},
    )
    term = _vars_named(draw(TERMS), names)
    concl = Judgment(basis, draw(st.sampled_from([PLUS, MINUS])), term, _atoms_named(draw(FORMULAS), names))
    prems = draw(st.lists(_odd_derivations(depth + 1), max_size=2)) if depth < 1 else []
    return Derivation(draw(_TEXT), concl, tuple(prems))


@hyp.given(_odd_derivations())
@hyp.settings(max_examples=80, deadline=None)
def test_dump_escapes_every_string_as_json_dumps_does(d):
    for indent in (2, None):
        assert derivation_to_json(d, indent) == json.dumps(former_derivation_to_obj(d), indent=indent)


def test_dump_escapes_each_field():
    odd = _SPECIAL + "x"
    term = Lam(odd, Case(Var(odd, PLUS), odd, Var(odd, PLUS), odd, Top(), PLUS), PLUS)
    basis = Basis.make({odd: Atom(odd)}, {odd: Imp(Atom(odd), Verum())})
    leaf = Derivation(odd, Judgment(basis, MINUS, Bot(), Atom(odd)))
    d = Derivation(odd, Judgment(basis, PLUS, term, And(Atom(odd), Falsum())), (leaf, leaf))
    for indent in (2, None):
        text = derivation_to_json(d, indent)
        assert text == json.dumps(former_derivation_to_obj(d), indent=indent)
        assert text.isascii()
        assert json.loads(text) == former_derivation_to_obj(d)


@hyp.given(FORMULAS)
@hyp.settings(max_examples=300, deadline=None)
def test_print_formula_matches_former_print_formula(f):
    assert print_formula(f) == former_print_formula(f)


# ------------------------------------------------------------------ sense


def _outcome(fn, d):
    try:
        return fn(d)
    except Exception as e:  # the error is part of the behaviour compared
        return type(e), str(e), getattr(e, "path", None)


def _full(outcome):
    """A sense outcome with each entry's term and scheme, which SenseEntry's
    equality leaves out (it compares text and polarity): what is compared
    with the former sense, so that the schemes are checked too."""
    if isinstance(outcome, SenseDescriptor):
        return {(e.text, e.pol, e.term, e.scheme) for e in outcome.entries}
    return outcome


def _mirror(t) -> Derivation:
    """A derivation-shaped tree over t: one node per position, each with
    its subterm as subject (sense reads nothing else)."""
    return Derivation("?", Judgment(Basis(), t.pol, t, Verum()), tuple(map(_mirror, children(t))))


def test_sense_matches_former_sense_on_the_corpus():
    for d in _corpus():
        assert _full(sense(d)) == _full(former_sense(d))


def test_sense_matches_former_sense_on_reloaded_copies():
    for d in _corpus()[::3]:
        copy = derivation_from_json(derivation_to_json(d))
        assert _full(sense(copy)) == _full(former_sense(copy)) == _full(sense(d))


def test_sense_matches_former_sense_on_one_step_reducts():
    checked = 0
    for d in _seeded(60, {}) + _seeded(60, REDEX_HEAVY_WEIGHTS):
        j = d.concl
        for r in find_redexes(j.term):
            reduct = check(j.basis, j.pol, step(j.term, r), j.type)
            assert _full(sense(reduct)) == _full(former_sense(reduct))
            checked += 1
    assert checked > 100


@st.composite
def _polarized(draw, pol, depth=0):
    """A well-polarized term of polarity pol over the free variables x, y
    and z; typable or not."""
    names = st.sampled_from(["x", "y", "z"])
    either = st.sampled_from([PLUS, MINUS])
    if depth >= 4 or draw(st.integers(0, 3)) == 0:
        if draw(st.booleans()):
            return Var(draw(names), pol)
        return Top() if pol is PLUS else Bot()
    sub = lambda q: _polarized(q, depth + 1)  # noqa: E731
    kind = draw(st.sampled_from(["abort", "one", "two", "mpair", "proj", "lam", "case"]))
    if kind == "abort":
        return Abort(draw(sub(draw(either))), pol)
    if kind == "one":
        return draw(st.sampled_from([Fst, Snd, Inl, Inr]))(draw(sub(pol)), pol)
    if kind == "two":
        return draw(st.sampled_from([Pair, App]))(draw(sub(pol)), draw(sub(pol)), pol)
    if kind == "mpair":
        return MPair(draw(sub(PLUS)), draw(sub(MINUS)), pol)
    if kind == "proj":
        return (Pi1 if pol is PLUS else Pi2)(draw(sub(draw(either))))
    if kind == "lam":
        return Lam(draw(names), draw(sub(pol)), pol)
    scrutinee = draw(sub(draw(either)))
    return Case(scrutinee, draw(names), draw(sub(pol)), draw(names), draw(sub(pol)), pol)


@hyp.given(st.one_of(_polarized(PLUS), _polarized(MINUS)))
@hyp.settings(max_examples=400, deadline=None)
def test_sense_matches_former_sense_on_small_terms(t):
    assert _full(_outcome(sense, _mirror(t))) == _full(_outcome(former_sense, _mirror(t)))


@hyp.given(TERMS)
@hyp.settings(max_examples=200, deadline=None)
def test_sense_raises_as_former_sense_on_ill_polarized_terms(t):
    assert _full(_outcome(sense, _mirror(t))) == _full(_outcome(former_sense, _mirror(t)))


def test_sense_gives_each_position_its_own_metavariables():
    u = parse_term("(\\x+. x+)+")
    d = check(Basis(), PLUS, Pair(u, u, PLUS), parse_formula("(a -> a) & (b -> b)"))
    assert d.prems[0].concl.term is d.prems[1].concl.term is u
    schemes = {print_formula(e.scheme.body) for e in sense(d).entries}
    assert schemes == {"(?A -> ?A) & (?B -> ?B)", "?A -> ?A", "?A"}
    assert _full(sense(d)) == _full(former_sense(d))


@pytest.mark.parametrize(
    "src, letters, body",
    [
        ("fst+(x+)", "AB", "A"),  # x+ : ?A & ?B
        ("app+(f+, x+)", "AB", "B"),  # f+ : ?A -> ?B, x+ : ?A
        ("app-(f-, fst-(x-))", "ABC", "A"),  # f- : ?A -< ?B, x- : ?B | ?C
    ],
)
def test_scheme_letters_start_in_the_basis(src, letters, body):
    # The letters follow first occurrence in gamma by name, then delta,
    # then the body, and list those the basis holds alone.  sense, which
    # keeps no basis, must letter as infer_principal does.
    t = parse_term(src)
    scheme = TypeScheme(tuple(letters), MetaVar(body))
    assert infer_principal(t).scheme == scheme
    d = _mirror(t)
    entries = {e.term: e.scheme for e in sense(d).entries}
    assert entries[canonical_variable_form(t)] == scheme
    assert _full(sense(d)) == _full(former_sense(d))


def test_sense_types_a_subterm_before_its_parent_constrains_it():
    # f is applied, so the whole term pins its type to ?A -> ?B, yet the
    # subject f+ alone has the scheme ?A.
    d = _mirror(parse_term("app+(f+, x+)"))
    schemes = {(e.term, print_formula(e.scheme.body)) for e in sense(d).entries}
    assert schemes == {(Var("v0", PLUS), "?A"), (App(Var("v0", PLUS), Var("v1", PLUS), PLUS), "?B")}
    assert _full(sense(d)) == _full(former_sense(d))


@pytest.mark.parametrize(
    "t",
    [
        parse_term("app+(x+, x+)"),
        parse_term("fst+((\\x+. x+)+)"),
        parse_term("case (\\x+. x+)+ {y+. y+ | z+. z+}+"),
        parse_term("<app+(top+, top+), x+>+"),
        Pair(Top(), Bot(), PLUS),
        Inl(Lam("x", Var("x", MINUS), PLUS), MINUS),
    ],
    ids=["occurs", "clash", "case clash", "deep clash", "ill-polarized", "ill-polarized below"],
)
def test_sense_raises_the_former_error(t):
    # The second derivation's premise is no subterm of its end term, so
    # the pass that fails is not the first.
    top = Judgment(Basis(), PLUS, Top(), Verum())
    for d in (_mirror(t), Derivation("TopI", top, (_mirror(t),))):
        got, want = _outcome(sense, d), _outcome(former_sense, d)
        assert isinstance(want, tuple)
        assert got == want


def test_sense_infers_a_scheme_only_when_it_is_read(monkeypatch):
    # Every scheme is lettered through typecheck._lettered, so its calls
    # count the schemes inferred.
    import l2int.typecheck as typecheck
    from l2int.meaning import SenseEntry, synonymous

    lettered, calls = typecheck._lettered, []
    monkeypatch.setattr(typecheck, "_lettered", lambda *a: calls.append(a) or lettered(*a))
    d = load_golden()[0]
    entries = sense(d).entries
    assert synonymous(d, d)
    assert len(entries) > 1 and calls == []
    e = next(iter(entries))
    scheme = e.scheme
    assert len(calls) == 1
    assert e.scheme is scheme and len(calls) == 1
    given = SenseEntry(e.term, e.pol, scheme)
    assert given.scheme is scheme and len(calls) == 1
