"""What a JSON load and `dual_derivation` share, against the code before
they shared it.

A load makes every formula through one dict keyed by an atom's text and a
connective's class and sides, so every equal formula of the load is one
object, made once, and it makes each distinct basis once;
`dual_derivation` dualizes each formula object, part by part, and each
basis object once.  The results must equal what the former code
made (`former.py`), dump to the same bytes and have the same dual and
sense, and a load must fail where the former load failed, with the same
error.  No formula is hashed on the way.
"""

import copy
import json
import re

import hypothesis as hyp
import hypothesis.strategies as st
import pytest

from l2int.derivation import RULE_TABLE, Derivation, dual_premises, height, validate
from l2int.duality import dual_derivation
from l2int.meaning import sense
from l2int.syntax import And, CoImp, Connective, Formula, Imp, Or
from l2int.textio import derivation_from_json, derivation_from_obj, derivation_to_json, parse_formula
from l2int.typecheck import check, infer_principal
from conftest import DATA
from former import former_derivation_from_obj, former_dual_derivation, former_sense
from test_acceptance import REDEX_HEAVY_WEIGHTS
from test_dump_and_sense import _corpus, _full, _outcome
from test_typecheck import _seeded


def _nodes(d: Derivation):
    todo = [d]
    while todo:
        node = todo.pop()
        todo.extend(node.prems)
        yield node


def _formulas(d: Derivation):
    """Every formula object of d: each node's type and basis formulas and
    all their parts."""
    todo = []
    for node in _nodes(d):
        j = node.concl
        todo += [j.type, *(f for _, f in j.basis.gamma + j.basis.delta)]
    while todo:
        f = todo.pop()
        yield f
        if isinstance(f, Connective):
            todo += f.left, f.right


def _same_as_former(text: str) -> Derivation:
    d = derivation_from_json(text)
    old = former_derivation_from_obj(json.loads(text))
    assert d == old
    for indent in (2, None):
        assert derivation_to_json(d, indent) == derivation_to_json(old, indent)
    return d


# ------------------------------------------------------- against the former code


def test_load_dual_and_sense_match_former_code_on_the_corpus():
    for d in _corpus():
        text = derivation_to_json(d)
        loaded = _same_as_former(text)
        assert derivation_to_json(loaded) == text
        dual = dual_derivation(loaded)
        assert dual == former_dual_derivation(loaded) == dual_derivation(d)
        assert derivation_to_json(dual) == derivation_to_json(former_dual_derivation(d))
        assert dual_derivation(dual) == loaded
        assert _full(sense(loaded)) == _full(former_sense(loaded))


def test_a_premise_type_that_is_a_slice_but_no_subformula():
    # a -> b -> c groups to the right, so a -> b is text of the parent's
    # but no part of it, and b -> c is its right side.
    def leaf(typ, gamma=()):
        concl = {"gamma": [list(e) for e in gamma], "delta": [], "pol": "+", "term": "x+", "type": typ}
        return {"rule": "Hyp+", "concl": concl, "prems": []}

    root = leaf("a -> b -> c", [("x", "a -> b -> c")])
    root["prems"] = [leaf("a -> b", [("x", "a -> b")]), leaf("b -> c", [("x", "(b -> c)")])]
    d = derivation_from_obj(copy.deepcopy(root))
    assert d == former_derivation_from_obj(root)
    whole, (first, second) = d.concl.type, d.prems
    assert first.concl.type == parse_formula("a -> b") == first.concl.basis.gamma[0][1]
    assert first.concl.type is not whole.right and first.concl.type.left is whole.left
    assert second.concl.type is whole.right is second.concl.basis.gamma[0][1]


# -------------------------------------------------------------- hand edits


_TOKEN = r"->|-<|\w+|\S"


def _tokens(src: str) -> list[str]:
    return re.findall(_TOKEN, src)


@st.composite
def _respelled(draw, src: str) -> str:
    """src with redundant parentheses around some of its atoms or around
    the whole, and whitespace between its tokens varied."""
    toks = _tokens(src)
    toks = [f"({t})" if t.isidentifier() and draw(st.booleans()) else t for t in toks]
    gaps = draw(st.lists(st.sampled_from(["", " ", "  ", "\n", "\t "]), min_size=len(toks) + 1,
                         max_size=len(toks) + 1))
    out = gaps[0] + "".join(t + g for t, g in zip(toks, gaps[1:]))
    return f"({out})" if draw(st.booleans()) else out


@st.composite
def _edited(draw):
    """A dumped derivation of the corpus with hand edits: formulas
    respelled, a premise typed by a stretch of its parent's type text,
    entries of a basis reordered, or one duplicate-name basis put at
    several nodes."""
    corpus = _corpus()
    d = corpus[draw(st.integers(0, len(corpus) - 1))]
    obj = json.loads(derivation_to_json(d))
    nodes, todo = [], [obj]
    while todo:
        node = todo.pop()
        nodes.append(node)
        todo.extend(node["prems"])
    for node in nodes:
        concl = node["concl"]
        if draw(st.integers(0, 3)) == 0:
            concl["type"] = draw(_respelled(concl["type"]))
        for side in ("gamma", "delta"):
            entries = concl[side]
            for e in entries:
                if draw(st.integers(0, 5)) == 0:
                    e[1] = draw(_respelled(e[1]))
            if len(entries) > 1 and draw(st.integers(0, 5)) == 0:
                entries.reverse()
        if node["prems"] and draw(st.integers(0, 3)) == 0:
            src = concl["type"]
            toks = [m.span() for m in re.finditer(_TOKEN, src)]
            i = draw(st.integers(0, len(toks) - 1))
            j = draw(st.integers(i, len(toks) - 1))
            prem = node["prems"][draw(st.integers(0, len(node["prems"]) - 1))]
            prem["concl"]["type"] = src[toks[i][0] : toks[j][1]]
    if draw(st.integers(0, 3)) == 0:
        f = nodes[0]["concl"]["type"]
        twice = [["x", f], ["x", draw(_respelled(f))]]
        for node in draw(st.lists(st.sampled_from(nodes), min_size=1, max_size=4)):
            node["concl"][draw(st.sampled_from(["gamma", "delta"]))] = copy.deepcopy(twice)
    return obj


def _load_outcome(load, obj):
    try:
        return load(copy.deepcopy(obj))
    except Exception as e:  # the error is part of the behaviour compared
        return type(e), str(e)


@hyp.given(_edited())
@hyp.settings(max_examples=150, deadline=None)
def test_load_matches_former_code_on_hand_edited_json(obj):
    got = _load_outcome(derivation_from_obj, obj)
    want = _load_outcome(former_derivation_from_obj, obj)
    assert got == want
    if isinstance(got, Derivation):
        assert derivation_to_json(got) == derivation_to_json(want)
        assert _outcome(dual_derivation, got) == _outcome(former_dual_derivation, want)
        assert _full(_outcome(sense, got)) == _full(_outcome(former_sense, want))


# -------------------------------------------------------------- the sharing


def test_equal_formulas_and_bases_of_a_load_are_one_object():
    # The dual keeps the load's formulas, their parts and its bases shared.
    def one_object_each(xs):
        objects: dict = {}
        return all(objects.setdefault(x, x) is x for x in xs)

    for d in _corpus()[::2]:
        loaded = derivation_from_json(derivation_to_json(d))
        for shared in (loaded, dual_derivation(loaded)):
            assert one_object_each(_formulas(shared))
            assert one_object_each(node.concl.basis for node in _nodes(shared))


def test_a_long_chains_left_part_is_the_premises_type():
    # The folds of a 40-atom chain hold about twenty times its text, so a
    # load that kept each fold's text up to a bound lost the last folds.
    chain = " | ".join(f"a{i}" for i in range(40))
    left = chain.rsplit(" | ", 1)[0]
    concl = {"gamma": [["x", left]], "delta": [], "pol": "+", "term": "x+", "type": left}
    prem = {"rule": "Hyp+", "concl": concl, "prems": []}
    d = _same_as_former(json.dumps({"rule": "OrI1", "concl": {**concl, "term": "inl+(x+)", "type": chain},
                                    "prems": [prem]}))
    assert validate(d) == []
    (p,) = d.prems
    assert p.concl.type is d.concl.type.left is p.concl.basis.gamma[0][1]


def test_one_formula_written_two_ways_is_one_object():
    concl = {"gamma": [["x", "((a) | (b))"], ["y", "a | b"]], "delta": [], "pol": "+", "term": "y+", "type": "a | b"}
    d = _same_as_former(json.dumps({"rule": "Hyp+", "concl": concl, "prems": []}))
    (_, first), (_, second) = d.concl.basis.gamma
    assert first is second is d.concl.type


def _sides(f: Formula) -> tuple:
    return (f.left, f.right) if isinstance(f, Connective) else ()


def test_a_dual_premise_type_is_the_part_of_its_dual_parents_type():
    # Where a premise's type is a side of its conclusion's type, or the
    # other way round, the same holds in the dual, of the matching side:
    # the dual of an arrow has its sides the other way round.
    found = 0
    for d in _corpus()[::2]:
        loaded = derivation_from_json(derivation_to_json(d))
        todo = [(loaded, dual_derivation(loaded))]
        while todo:
            node, dual = todo.pop()
            prems = dual_premises(RULE_TABLE[node.rule].ctor, dual.prems)  # the input's order
            for p, q in zip(node.prems, prems):
                for whole, part, dual_whole, dual_part in (
                    (node.concl.type, p.concl.type, dual.concl.type, q.concl.type),
                    (p.concl.type, node.concl.type, q.concl.type, dual.concl.type),
                ):
                    for k, side in enumerate(_sides(whole)):
                        if side is part:
                            k = 1 - k if isinstance(whole, (Imp, CoImp)) else k
                            assert dual_part is _sides(dual_whole)[k]
                            found += 1
                todo.append((p, q))
    assert found > 1_000


# ------------------------------------------------------------ no formula hash


def _formula_classes(cls=Formula):
    for sub in cls.__subclasses__():
        yield sub
        yield from _formula_classes(sub)


def _no_hash(f):
    raise AssertionError(f"a {type(f).__name__} formula was hashed")


def test_no_formula_is_hashed_from_load_to_dump(monkeypatch):
    texts = [p.read_text() for p in sorted(DATA.glob("*.json"))]
    texts += [derivation_to_json(d) for d in _seeded(100, {}) + _seeded(100, REDEX_HEAVY_WEIGHTS)]
    for cls in _formula_classes():
        monkeypatch.setattr(cls, "__hash__", _no_hash)
    with pytest.raises(AssertionError, match="formula was hashed"):
        hash(And(Or(parse_formula("a"), parse_formula("top")), parse_formula("b")))
    for text in texts:
        d = derivation_from_json(text)
        assert validate(d) == []
        j = d.concl
        assert check(j.basis, j.pol, j.term, j.type).concl == j
        infer_principal(j.term)
        dual = dual_derivation(d)
        assert dual_derivation(dual) == d
        assert validate(dual) == [] and height(dual) == height(d)
        assert sense(d) == sense(d)
        assert derivation_from_json(derivation_to_json(dual)) == dual


def test_a_premise_type_is_its_parents_part():
    # An introduction's premise type is a part of its conclusion's, and an
    # elimination's conclusion type a part of its premise's.
    text = json.dumps({"rule": "AndI", "concl": {
        "gamma": [["x", "a | b"]], "delta": [], "pol": "+", "term": "<x+, fst+(y+)>+", "type": "(a | b) & c",
    }, "prems": [
        {"rule": "Hyp+", "concl": {
            "gamma": [["x", "a | b"]], "delta": [], "pol": "+", "term": "x+", "type": "a | b",
        }, "prems": []},
        {"rule": "AndE1", "concl": {
            "gamma": [["x", "a | b"]], "delta": [], "pol": "+", "term": "fst+(y+)", "type": "c",
        }, "prems": [{"rule": "Hyp+", "concl": {
            "gamma": [["x", "a | b"], ["y", "c & (a | b -> c)"]], "delta": [], "pol": "+", "term": "y+",
            "type": "c & (a | b -> c)",
        }, "prems": []}]},
    ]})
    d = _same_as_former(text)
    whole = d.concl.type
    left, right = d.prems
    assert left.concl.type is whole.left and isinstance(whole.left, Or)
    assert right.concl.type is whole.right
    pair = right.prems[0].concl.type
    assert pair.left is whole.right and isinstance(pair.right, Imp) and pair.right.left is whole.left
    assert d.concl.basis is left.concl.basis is right.concl.basis
    assert right.prems[0].concl.basis.gamma[0] == d.concl.basis.gamma[0]
