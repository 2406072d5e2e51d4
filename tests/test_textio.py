import functools
import json
import gc
import tracemalloc

import hypothesis as hyp
import hypothesis.strategies as st
import pytest

from l2int.derivation import Derivation, Judgment, validate
from l2int.duality import dual_derivation
from l2int.syntax import (
    PLUS,
    MINUS,
    And,
    Atom,
    Basis,
    Bot,
    CoImp,
    Connective,
    Falsum,
    Imp,
    MetaVar,
    Or,
    Pair,
    Top,
    Var,
    Verum,
)
from l2int.rewrite import normalize
from l2int.testkit import GenConfig, gen_derivation
from l2int.textio import (
    DerivationFormatError,
    ParseError,
    PolarityError,
    derivation_from_json,
    derivation_from_obj,
    derivation_to_json,
    parse_formula,
    parse_term,
    print_basis,
    print_formula,
    print_term,
)
from l2int.typecheck import infer_principal
from conftest import DATA, load_worked_pair, premises_share_subterms


# ---------------------------------------------------------------- formulas


def test_parse_formula_atoms_and_constants():
    assert parse_formula("a") == Atom("a")
    assert parse_formula("bot") == Falsum()
    assert parse_formula("top") == Verum()
    assert parse_formula("aB_2") == Atom("aB_2")


def test_parse_formula_precedence():
    assert parse_formula("a & b | c") == Or(And(Atom("a"), Atom("b")), Atom("c"))
    assert parse_formula("a | b & c") == Or(Atom("a"), And(Atom("b"), Atom("c")))
    assert parse_formula("a & b -> c") == Imp(And(Atom("a"), Atom("b")), Atom("c"))


def test_parse_formula_arrow_associativity():
    assert parse_formula("a -> b -> c") == Imp(Atom("a"), Imp(Atom("b"), Atom("c")))
    assert parse_formula("a -< b -< c") == CoImp(CoImp(Atom("a"), Atom("b")), Atom("c"))


def test_parse_formula_rejects_mixed_arrows():
    with pytest.raises(ParseError):
        parse_formula("a -> b -< c")
    with pytest.raises(ParseError):
        parse_formula("a -< b -> c")
    # parenthesized mixing is fine
    assert parse_formula("a -> (b -< c)") == Imp(Atom("a"), CoImp(Atom("b"), Atom("c")))


def test_parse_formula_error_has_span():
    with pytest.raises(ParseError) as e:
        parse_formula("a & ")
    assert e.value.span.start == 4
    with pytest.raises(ParseError) as e:
        parse_formula("a @ b")
    assert e.value.span.start == 2
    assert e.value.span.line == 0
    assert e.value.span.column == 2


def test_print_formula_minimal_parens():
    f = parse_formula("((b -< a) -> bot) -< (b -> a)")
    assert print_formula(f) == "((b -< a) -> bot) -< (b -> a)"
    assert print_formula(parse_formula("(a & b) | c")) == "a & b | c"
    assert print_formula(parse_formula("a & (b | c)")) == "a & (b | c)"
    assert print_formula(parse_formula("(a -> b) -> c")) == "(a -> b) -> c"
    assert print_formula(parse_formula("a -> (b -> c)")) == "a -> b -> c"
    assert print_formula(parse_formula("(a -< b) -< c")) == "a -< b -< c"
    assert print_formula(parse_formula("a -< (b -< c)")) == "a -< (b -< c)"


def test_print_formula_metavars():
    assert print_formula(Imp(MetaVar("A"), MetaVar("A"))) == "?A -> ?A"


formulas = st.recursive(
    st.one_of(
        st.sampled_from("abc").map(Atom),
        st.just(Falsum()),
        st.just(Verum()),
    ),
    lambda sub: st.one_of(
        st.tuples(sub, sub).map(lambda p: And(*p)),
        st.tuples(sub, sub).map(lambda p: Or(*p)),
        st.tuples(sub, sub).map(lambda p: Imp(*p)),
        st.tuples(sub, sub).map(lambda p: CoImp(*p)),
    ),
    max_leaves=20,
)


@hyp.given(formulas)
def test_formula_round_trip(f):
    assert parse_formula(print_formula(f)) == f


# ------------------------------------------------------------------- terms


def test_parse_term_examples():
    assert parse_term("x+") == Var("x", PLUS)
    assert parse_term("top+") == Top()
    assert parse_term("bot-") == Bot()
    assert parse_term("<x+, y+>+") == Pair(Var("x", PLUS), Var("y", PLUS), PLUS)
    assert print_term(parse_term("(\\x+. x+)+")) == "(\\x+. x+)+"
    assert print_term(parse_term("{top+, bot-}-")) == "{top+, bot-}-"
    assert print_term(parse_term("case z- {x-. u- | y-. v-}-")) == "case z- {x-. u- | y-. v-}-"


def test_parse_term_grouping_parens():
    assert parse_term("((x+))") == Var("x", PLUS)
    assert parse_term("fst+((x+))") == parse_term("fst+(x+)")


def test_parse_term_rejects_reserved_words_as_variables():
    with pytest.raises(ParseError):
        parse_term("case+")
    with pytest.raises(ParseError):
        parse_term("(\\fst+. fst+)+")


def test_parse_term_polarity_violation():
    with pytest.raises(PolarityError):
        parse_term("<top+, bot->+")
    with pytest.raises(PolarityError) as e:
        parse_term("app+(x+, y-)")
    assert e.value.span is not None


def test_parse_term_lambda_binder_polarity():
    with pytest.raises(ParseError):
        parse_term("(\\x+. x+)-")
    with pytest.raises(ParseError):
        parse_term("case z+ {x-. u+ | y+. v+}+")


def test_parse_term_projection_polarities():
    with pytest.raises(ParseError):
        parse_term("p1-(x-)")
    with pytest.raises(ParseError):
        parse_term("p2+(x+)")


def test_parse_term_error_span():
    with pytest.raises(ParseError) as e:
        parse_term("app+(x+ y+)")
    assert e.value.span.start == 8


def test_parse_too_deep_is_a_parse_error():
    term = "inl+(" * 3000 + "x+" + ")" * 3000
    with pytest.raises(ParseError) as e:
        parse_term(term)
    assert e.value.message == "nested too deeply"
    assert 0 < e.value.span.start < len(term)
    formula = "(" * 2000 + "a" + ")" * 2000
    with pytest.raises(ParseError) as e:
        parse_formula(formula)
    assert e.value.message == "nested too deeply"
    assert 0 < e.value.span.start < len(formula)


def test_parse_keeps_the_depths_it_reached_before():
    src = "inl+(" * 950 + "x+" + ")" * 950
    t = parse_term(src)
    assert print_term(t) == src
    assert infer_principal(t).basis.gamma == (("x", MetaVar("A")),)
    assert normalize(t).term == t
    assert parse_formula("(" * 200 + "a" + ")" * 200) == Atom("a")


@hyp.given(st.integers(0, 5000))
@hyp.settings(max_examples=120, deadline=None)
def test_term_round_trip(seed):
    term = gen_derivation(GenConfig(seed=seed, max_height=6)).concl.term
    assert parse_term(print_term(term)) == term


# ------------------------------------------------------------- derivations


def test_print_basis_shapes():
    from l2int.syntax import Basis

    assert print_basis(Basis()) == "(;)"
    assert print_basis(Basis.make({"x": Atom("a")})) == "(x+: a;)"
    assert print_basis(Basis.make(None, {"y": Atom("b")})) == "(; y-: b)"
    assert (
        print_basis(Basis.make({"x": Atom("a")}, {"y": Atom("b")}))
        == "(x+: a; y-: b)"
    )


def test_derivation_json_round_trip():
    first, second = load_worked_pair()
    assert derivation_from_json(derivation_to_json(first)) == first
    assert derivation_from_json(derivation_to_json(second, indent=None)) == second


def test_derivation_json_rejects_garbage():
    with pytest.raises(DerivationFormatError):
        derivation_from_json("not json at all {")
    with pytest.raises(DerivationFormatError):
        derivation_from_json('{"rule": "ImpI"}')
    with pytest.raises(DerivationFormatError):
        derivation_from_json('{"rule": 3, "concl": {}, "prems": []}')
    with pytest.raises(DerivationFormatError):
        derivation_from_json(
            '{"rule": "TopI", "concl": {"gamma": [["x", "a"], ["x", "b"]], '
            '"delta": [], "pol": "+", "term": "top+", "type": "top"}, "prems": []}'
        )


@hyp.given(st.integers(0, 5000))
@hyp.settings(max_examples=60, deadline=None)
def test_derivation_json_round_trip_generated(seed):
    d = gen_derivation(GenConfig(seed=seed, max_height=5))
    assert derivation_from_json(derivation_to_json(d)) == d


def _judgment_json(**fields) -> str:
    concl = {"gamma": [], "delta": [], "pol": "+", "term": "x+", "type": "a"} | fields
    return json.dumps({"rule": "Hyp+", "concl": concl, "prems": []})


@pytest.mark.parametrize(
    "fields",
    [
        {"gamma": [[1, "a"]]},
        {"gamma": ["xa"]},
        {"gamma": [["x", ["a"]]]},
        {"gamma": [["x", "a", "b"]]},
        {"delta": {"xa": "b"}},
        {"pol": ["+"]},
        {"term": 3},
        {"type": None},
    ],
)
def test_derivation_json_strict_schema(fields):
    with pytest.raises(DerivationFormatError):
        derivation_from_json(_judgment_json(**fields))


def test_derivation_json_parse_errors_unchanged():
    for fields, parse, src in [
        ({"gamma": [["x", "a & "]]}, parse_formula, "a & "),
        ({"term": "app+(x+ y+)"}, parse_term, "app+(x+ y+)"),
        ({"term": "app+(x+, y-)"}, parse_term, "app+(x+, y-)"),
        ({"type": "a -> b -< c"}, parse_formula, "a -> b -< c"),
    ]:
        with pytest.raises((ParseError, PolarityError)) as expected:
            parse(src)
        with pytest.raises(expected.type) as got:
            derivation_from_json(_judgment_json(**fields))
        assert (got.value.message, got.value.span) == (expected.value.message, expected.value.span)


# Reference JSON load and dump: every node's strings parsed and printed from
# scratch, with no sharing between nodes.


def _reference_from_obj(obj) -> Derivation:
    c = obj["concl"]
    basis = Basis.make(
        {n: parse_formula(f) for n, f in c["gamma"]},
        {n: parse_formula(f) for n, f in c["delta"]},
    )
    pol = {"+": PLUS, "-": MINUS}[c["pol"]]
    concl = Judgment(basis, pol, parse_term(c["term"]), parse_formula(c["type"]))
    return Derivation(obj["rule"], concl, tuple(_reference_from_obj(p) for p in obj["prems"]))


def _reference_to_obj(d: Derivation) -> dict:
    j = d.concl
    concl = {
        "gamma": [[n, print_formula(f)] for n, f in j.basis.gamma],
        "delta": [[n, print_formula(f)] for n, f in j.basis.delta],
        "pol": str(j.pol),
        "term": print_term(j.term),
        "type": print_formula(j.type),
    }
    return {"rule": d.rule, "concl": concl, "prems": [_reference_to_obj(p) for p in d.prems]}


def _rule_count(d: Derivation) -> int:
    return 1 + sum(_rule_count(p) for p in d.prems)


@functools.cache
def _corpus() -> tuple[str, ...]:
    """tests/data/*.json and 200 seeded derivations, as JSON text."""
    texts = [p.read_text() for p in sorted(DATA.glob("*.json"))]
    sizes = []
    for seed in range(200):
        d = gen_derivation(GenConfig(seed=seed, max_height=8))
        sizes.append(_rule_count(d))
        texts.append(json.dumps(_reference_to_obj(d)))
    assert sum(n > 50 for n in sizes) >= 3
    return tuple(texts)


def test_derivation_json_matches_reference():
    for text in _corpus():
        obj = json.loads(text)
        d = derivation_from_json(text)
        assert d == _reference_from_obj(obj)
        assert derivation_to_json(d) == json.dumps(_reference_to_obj(d), indent=2)
        assert derivation_to_json(d, indent=None) == json.dumps(_reference_to_obj(d))


def test_derivation_json_shares_equal_formulas():
    text = (DATA / "worked_first.json").read_text()
    loaded = {}  # basis formula string -> the formula objects loaded for it

    def walk(obj, d):
        c, basis = obj["concl"], d.concl.basis
        for entries, side in ((c["gamma"], basis.gamma), (c["delta"], basis.delta)):
            for name, src in entries:
                loaded.setdefault(src, []).append(dict(side)[name])
        for o, p in zip(obj["prems"], d.prems):
            walk(o, p)

    walk(json.loads(text), derivation_from_json(text))
    assert any(len(fs) > 1 for fs in loaded.values())
    for fs in loaded.values():
        assert all(f is fs[0] for f in fs)


# A load parses a node's term string only when it is not the text of one of
# its parent term's children; otherwise the premise gets that child object.


def test_derivation_json_premises_share_their_parents_subterms():
    for text in _corpus():
        d = derivation_from_json(text)
        assert premises_share_subterms(d)
        assert premises_share_subterms(dual_derivation(d))


def _nodes(obj):
    yield obj
    for p in obj["prems"]:
        yield from _nodes(p)


def test_derivation_json_premises_spelled_differently():
    respellings = [
        lambda s: f"({s})",
        lambda s: f" ( {s} )\n",
        lambda s: s.replace(", ", " ,\n  ").replace("(", "( "),
    ]
    for text in _corpus()[:60]:
        for respell in respellings:
            for parity in (0, 1):
                obj = json.loads(text)
                for i, n in enumerate(_nodes(obj)):
                    if i % 2 == parity:
                        n["concl"]["term"] = respell(n["concl"]["term"])
                assert derivation_from_obj(obj) == _reference_from_obj(obj)
    # A child in redundant parentheses: its text is "(top+)", not "top+".
    top = {"rule": "TopI", "concl": {"gamma": [], "delta": [], "pol": "+", "type": "top"}, "prems": []}
    for parent, prems in [
        ("<(top+), top+>+", ["top+", "(top+)"]),
        ("<((top+)), (top+)>+", ["(top+)", "top+"]),
        ("<top+, top+>+", ["( top+)", "((top+))"]),
    ]:
        obj = {
            "rule": "AndI",
            "concl": {"gamma": [], "delta": [], "pol": "+", "term": parent, "type": "top & top"},
            "prems": [top | {"concl": top["concl"] | {"term": p}} for p in prems],
        }
        d = derivation_from_obj(obj)
        assert d == _reference_from_obj(obj)
        assert validate(d) == []


def test_derivation_json_premises_not_subterms_of_their_parent():
    invalid = 0
    for text in _corpus()[:40]:
        root = json.loads(text)
        for k, n in enumerate(_nodes(root)):
            if not n["prems"]:
                continue
            first = n["prems"][0]["concl"]["term"]
            flipped = first[:-1] + ("-" if first.endswith("+") else "+")
            others = ["top+", root["concl"]["term"], n["prems"][-1]["concl"]["term"], flipped]
            for other in dict.fromkeys(others):
                obj = json.loads(text)
                list(_nodes(obj))[k]["prems"][0]["concl"]["term"] = other
                try:
                    want = _reference_from_obj(obj)
                except (ParseError, PolarityError):
                    continue
                d = derivation_from_obj(obj)
                assert d == want
                assert validate(d) == validate(want)
                invalid += validate(d) != []
    assert invalid > 200


@pytest.mark.parametrize(
    "bad", ["app+(x+ y+)", "app+(x+, y-)", "<top+, bot->+", "x", "fst+(", "(\\x+. x+)-", ""]
)
def test_derivation_json_premise_parse_errors_unchanged(bad):
    with pytest.raises((ParseError, PolarityError)) as expected:
        parse_term(bad)
    for path in DATA.glob("*.json"):
        obj = json.loads(path.read_text())
        for n in list(_nodes(obj))[1:]:
            n["concl"]["term"] = bad
            with pytest.raises(expected.type) as got:
                derivation_from_obj(obj)
            assert (got.value.message, got.value.span) == (expected.value.message, expected.value.span)


def _deep_wide_term(depth: int, name_length: int) -> str:
    """An inl+ chain of the given depth around a balanced tree of pairs over
    256 variables with long names: most of the text lies at the bottom."""

    def tree(k: int, i: int) -> str:
        if k == 0:
            return f"x{i:0{name_length}d}+"
        return f"<{tree(k - 1, 2 * i)}, {tree(k - 1, 2 * i + 1)}>+"

    return "inl+(" * depth + tree(8, 0) + ")" * depth


def test_derivation_json_load_memory_is_linear():
    # A slice of the text per subterm would take about depth * length bytes
    # here (some 170 MB, 880 times the text); the load keeps a few objects
    # per token and peaks below 30 times the text.
    term = _deep_wide_term(880, 750)
    concl = {"gamma": [], "delta": [], "pol": "+", "term": term, "type": "a"}
    text = json.dumps({"rule": "Hyp+", "concl": concl, "prems": []})
    assert len(text) > 190_000
    gc.collect()  # a full collection empties the free lists, so every allocation is traced
    tracemalloc.start()
    try:
        d = derivation_from_json(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert print_term(d.concl.term) == term
    assert peak < 50 * len(text)


def test_derivation_json_load_memory_is_linear_in_a_formula_chain():
    # Each fold of a chain is text of its own: recording the text of all
    # of them would take 43 MB at 3,000 atoms, four times as much as at
    # 1,500 and 800 times the text.  The load keeps one object and one key
    # per fold, and most of its peak is the tokens.
    def load(sym, n):
        chain = f" {sym} ".join(f"a{i}" for i in range(n))
        concl = {"gamma": [["x", chain]], "delta": [], "pol": "+", "term": "x+", "type": chain}
        text = json.dumps({"rule": "Hyp+", "concl": concl, "prems": []})
        gc.collect()  # a full collection empties the free lists, so every allocation is traced
        tracemalloc.start()
        try:
            d = derivation_from_json(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert d.concl.basis.gamma[0][1] is d.concl.type
        f, names = d.concl.type, []  # too deep for print_formula
        while isinstance(f, Connective):
            side, f = (f.left, f.right) if sym == "->" else (f.right, f.left)
            names.append(side.name)
        names.append(f.name)
        assert names == [f"a{i}" for i in (range(n) if sym == "->" else reversed(range(n)))]
        return peak, len(text)

    for sym in ("->", "-<", "|", "&"):
        (small, _), (large, size) = load(sym, 1500), load(sym, 3000)
        assert large < 2.5 * small
        assert large < 100 * size
