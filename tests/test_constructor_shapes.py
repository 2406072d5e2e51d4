"""Constructor shapes read off the dataclass fields, against the former code
that spelled out each constructor (`former.py`): the child getter, `build`
through `with_children`, the generic `dual_term`, the keyword table of the
term parser and printer, and the formula traversals over `Connective`; and
the formula parser and printer that `textio._INFIX` drives, against the
former parser with a function per level of precedence."""

import hypothesis as hyp
import hypothesis.strategies as st

from l2int import syntax
from l2int.derivation import instantiate
from l2int.duality import dual_term
from l2int.syntax import (
    PLUS,
    MINUS,
    Abort,
    And,
    App,
    Atom,
    Bot,
    Case,
    CoImp,
    Connective,
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
    Term,
    Top,
    Var,
    Verum,
    children,
    dual_formula,
    metavars_of,
    with_children,
)
from l2int.textio import (
    _KEYWORD_CTORS,
    _TERM_KEYWORDS,
    ParseError,
    PolarityError,
    parse_formula,
    parse_term,
    print_formula,
    print_term,
)
from l2int.typecheck import Substitution, UnifyError, _unify
import former
from former import (
    former_apply,
    former_children,
    former_dual_formula,
    former_dual_term,
    former_metavar_order,
    former_parse_formula,
    former_print_formula,
    former_parse_term,
    former_print_term,
    former_rename_metavars,
    former_unify,
    former_with_children,
)

CONSTRUCTORS = {Var, Top, Bot, Abort, Pair, Fst, Snd, Inl, Inr, Case, Lam, App, MPair, Pi1, Pi2}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_term_constructor_has_a_shape():
    assert set(_subclasses(Term)) == CONSTRUCTORS
    for table in (syntax._CHILDREN, syntax._UNBOUND, syntax._BINDER_FIELDS):
        assert set(table) == CONSTRUCTORS
    assert syntax._FIXED_POL == {Top, Bot, Pi1, Pi2}
    assert {c: f for c, f in syntax._BINDER_FIELDS.items() if f} == {
        Lam: ("binder",),
        Case: (None, "binder1", "binder2"),
    }
    assert set(_subclasses(Connective)) == {And, Or, Imp, CoImp}


def test_keyword_table_covers_the_former_keywords():
    assert set(_KEYWORD_CTORS) == {"abort", "fst", "snd", "inl", "inr", "app", "p1", "p2"}
    assert _TERM_KEYWORDS == former._TERM_KEYWORDS


# ------------------------------------------------------------------ terms

NAMES = st.sampled_from(["x", "y", "z"])
POLS = st.sampled_from([PLUS, MINUS])


def _extend(sub):
    return st.one_of(
        st.builds(Abort, sub, POLS),
        st.builds(Pair, sub, sub, POLS),
        st.builds(Fst, sub, POLS),
        st.builds(Snd, sub, POLS),
        st.builds(Inl, sub, POLS),
        st.builds(Inr, sub, POLS),
        st.builds(Case, sub, NAMES, sub, NAMES, sub, POLS),
        st.builds(Lam, NAMES, sub, POLS),
        st.builds(App, sub, sub, POLS),
        st.builds(MPair, sub, sub, POLS),
        st.builds(Pi1, sub),
        st.builds(Pi2, sub),
    )


# Terms of every constructor at both polarities, well polarized or not.
TERMS = st.recursive(
    st.one_of(st.builds(Var, NAMES, POLS), st.just(Top()), st.just(Bot())), _extend, max_leaves=12
)


def _outcome(parse, src):
    """What parse makes of src: the term, or the error's kind, message and
    span."""
    try:
        return parse(src)
    except (ParseError, PolarityError) as e:
        return type(e).__name__, e.message, e.span


# Pieces an edit may put into a printed term.
TOKENS = st.sampled_from(
    ["(", ")", "<", ">", "{", "}", ",", ".", "|", "\\", "+", "-", " ", "x", "p1", "p2", "app",
     "inl", "abort", "case", "top", "bot", "fst", "%"]
)


@hyp.given(TERMS, st.data())
@hyp.settings(max_examples=400, deadline=None)
def test_term_constructors_match_former_code(t, data):
    kids = children(t)
    assert kids == former_children(t)
    assert all(a is b for a, b in zip(kids, former_children(t)))

    new = tuple(data.draw(TERMS) for _ in kids)
    assert with_children(t, new) == former_with_children(t, new)
    names = [data.draw(NAMES) if isinstance(t, (Lam, Case)) and (i or isinstance(t, Lam)) else None
             for i in range(len(kids))]
    assert with_children(t, new, names) == former_with_children(t, new, names)

    d = dual_term(t)
    assert d == former_dual_term(t)
    assert dual_term(d) == t

    text = print_term(t)
    assert text == former_print_term(t)
    assert print_term(d) == former_print_term(d)

    assert _outcome(parse_term, text) == _outcome(former_parse_term, text)
    i = data.draw(st.integers(0, len(text)))
    j = data.draw(st.integers(i, min(len(text), i + 4)))
    edited = text[:i] + data.draw(TOKENS) + text[j:]
    assert _outcome(parse_term, edited) == _outcome(former_parse_term, edited)


def test_parse_errors_of_the_keyword_branch_match_former_code():
    for src in [
        "p1-(x+)", "p2+(x-)", "p1+(x+", "app+(x+)", "app+(x+, y+, z+)", "app+x+", "inl(x+)",
        "fst+()", "abort-(top+)", "p2-(p1+(x+))", "snd-(x-", "inr+(x+))",
    ]:
        assert _outcome(parse_term, src) == _outcome(former_parse_term, src), src


def test_parse_errors_of_the_binders_match_former_code():
    # The parser checks each binder's polarity against `binders`.
    for src in [
        "(\\x-. x+)+", "(\\x+. x-)-", "case x+ {y-. y+ | z+. z+}+", "case x- {y-. y+ | z+. z+}+",
        "case x- {y-. y+ | z-. z+}+", "case x+ {top+. x+ | z+. z+}+", "(\\p1+. x+)+", "case x+ {y+. y+ | z+. z+}-",
    ]:
        assert _outcome(parse_term, src) == _outcome(former_parse_term, src), src


# --------------------------------------------------------------- formulas

VAR_NAMES = ["A", "B", "C", "D"]


def _formulas(metavars):
    leaves = [st.builds(Atom, st.sampled_from(["a", "b"])), st.just(Verum()), st.just(Falsum())]
    if metavars:
        leaves.append(st.builds(MetaVar, st.sampled_from(metavars)))
    return st.recursive(
        st.one_of(leaves),
        lambda sub: st.builds(lambda c, a, b: c(a, b), st.sampled_from([And, Or, Imp, CoImp]), sub, sub),
        max_leaves=10,
    )


@st.composite
def _substitutions(draw):
    """A substitution without cycles: each variable's formula has only
    later variables in it."""
    mapping = {}
    for i, name in enumerate(VAR_NAMES):
        if draw(st.booleans()):
            mapping[name] = draw(_formulas(VAR_NAMES[i + 1:]))
    return Substitution(mapping)


def test_instantiate_keeps_an_atom_or_a_constant_as_it_is():
    # Renaming a scheme's metavariables goes through instantiate, so each
    # leaf that is not a metavariable, atoms included, is the same object.
    env = {"A": MetaVar("B")}
    for leaf in (Atom("a"), Verum(), Falsum()):
        assert instantiate(leaf, env) is leaf
        assert instantiate(Imp(MetaVar("A"), leaf), env).right is leaf


@hyp.given(_formulas(VAR_NAMES), _formulas(VAR_NAMES), _substitutions())
@hyp.settings(max_examples=400, deadline=None)
def test_formula_traversals_match_former_code(f, g, s):
    d = dual_formula(f)
    assert d == former_dual_formula(f)
    assert dual_formula(d) == f

    assert s.apply(f) == former_apply(s, f)

    letters = {n: n.lower() + "1" for n in VAR_NAMES}
    assert instantiate(f, {n: MetaVar(x) for n, x in letters.items()}) == former_rename_metavars(f, letters)
    assert metavars_of(f, g) == former_metavar_order([f, g])

    new, old = Substitution(dict(s.mapping)), Substitution(dict(s.mapping))
    try:
        _unify(f, g, new)
        got = None
    except UnifyError as e:
        got = type(e), str(e)
    try:
        former_unify(f, g, old)
        want = None
    except UnifyError as e:
        want = type(e), str(e)
    assert got == want
    assert new.mapping == old.mapping


def _formula_outcome(parse, src):
    """What parse makes of src: the formula, or the error's kind, message,
    span and expected tokens."""
    try:
        return parse(src)
    except ParseError as e:
        return type(e).__name__, e.message, e.span, e.expected


# Pieces of formula text, and of what an edit may put into one.
FORMULA_TOKENS = st.sampled_from(
    ["a", "b", "top", "bot", "(", ")", "->", "-<", "&", "|", " ", "-", "<", ">", "?", "A", "\n"]
)


@hyp.given(st.lists(FORMULA_TOKENS, max_size=14), _formulas(VAR_NAMES), _formulas([]), st.data())
@hyp.settings(max_examples=600, deadline=None)
def test_formula_parser_and_printer_match_former_code(tokens, f, g, data):
    src = "".join(tokens)
    assert _formula_outcome(parse_formula, src) == _formula_outcome(former_parse_formula, src)

    assert print_formula(f) == former_print_formula(f)
    text = print_formula(g)
    assert parse_formula(text) == g
    i = data.draw(st.integers(0, len(text)))
    j = data.draw(st.integers(i, min(len(text), i + 4)))
    edited = text[:i] + data.draw(FORMULA_TOKENS) + text[j:]
    assert _formula_outcome(parse_formula, edited) == _formula_outcome(former_parse_formula, edited)


def test_formula_parse_errors_match_former_code():
    # Only '->' before the end says "expected a formula after '->'".
    for src in [
        "a ->", "a -<", "a |", "a &", "a -> b -> ", "a -> b -< c", "a -< b -> c", "a -> b -> c -< d",
        "a -< b -< c -> d", "(a -> b", "a b", "", ")", "-> a", "a -> (b -< c)", "a & | b", "(a -< b) -> c",
    ]:
        assert _formula_outcome(parse_formula, src) == _formula_outcome(former_parse_formula, src), src
    assert _formula_outcome(parse_formula, "a -> ")[1] == "expected a formula after '->'"
    assert _formula_outcome(parse_formula, "a -< ")[1] == "expected a formula, found 'end of input'"
