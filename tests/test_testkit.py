import math
import random

import hypothesis as hyp
import hypothesis.strategies as st
import pytest

from l2int.derivation import check_polarities, height, validate
from l2int.rewrite import normalize
from l2int.syntax import PLUS, MINUS, Atom, Connective, is_ground, term_size
from l2int.testkit import (
    DEFAULT_WEIGHTS,
    GenConfig,
    gen_basis,
    gen_derivation,
    gen_derivation_of,
    gen_formula,
    oracle_reduce_all,
)
from l2int.textio import derivation_to_json, parse_formula, parse_term, print_term
from conftest import DATA


def test_gen_config_validation():
    with pytest.raises(ValueError):
        GenConfig(atom_pool=())
    with pytest.raises(ValueError):
        GenConfig(max_height=-1)


def test_gen_derivation_deterministic_in_seed():
    a = gen_derivation(GenConfig(seed=42, max_height=6))
    b = gen_derivation(GenConfig(seed=42, max_height=6))
    assert a == b
    spread = {gen_derivation(GenConfig(seed=s, max_height=6)) for s in range(12)}
    assert len(spread) > 1  # seeds must actually vary the output


def test_gen_derivation_respects_height_budget():
    for seed in range(40):
        d = gen_derivation(GenConfig(seed=seed, max_height=3))
        assert height(d) <= 3
        assert validate(d) == []


def test_gen_derivation_height_zero_gives_leaves():
    d = gen_derivation(GenConfig(seed=5, max_height=0))
    assert height(d) == 0
    assert d.rule in ("Hyp+", "Hyp-")


def _atoms(f) -> set[str]:
    """The names of the atoms in f."""
    if isinstance(f, Atom):
        return {f.name}
    if isinstance(f, Connective):
        return _atoms(f.left) | _atoms(f.right)
    return set()


def test_gen_derivation_grounds_into_atom_pool():
    for seed in range(30):
        d = gen_derivation(GenConfig(seed=seed, max_height=5, atom_pool=("p", "q")))
        assert is_ground(d.concl.type)
        names = _atoms(d.concl.type)
        for _, f in d.concl.basis.gamma + d.concl.basis.delta:
            names |= _atoms(f)
        assert names <= {"p", "q"}


def test_gen_derivation_of_hits_the_goal():
    goal = parse_formula("(a -> b) -> a -> b")
    d = gen_derivation_of(GenConfig(seed=1, max_height=5), goal, PLUS)
    assert d.concl.type == goal
    assert d.concl.pol is PLUS
    assert validate(d) == []
    e = gen_derivation_of(GenConfig(seed=2, max_height=4), parse_formula("a & b"), MINUS)
    assert e.concl.type == parse_formula("a & b")
    assert e.concl.pol is MINUS


def test_rule_weights_steer_generation():
    heavy = {"ImpI": 50.0, "CoImpI_d": 50.0}
    lams = sum(
        print_term(
            gen_derivation(GenConfig(seed=s, max_height=4, rule_weights=heavy)).concl.term
        ).count("\\")
        for s in range(60)
    )
    base = sum(
        print_term(gen_derivation(GenConfig(seed=s, max_height=4)).concl.term).count("\\")
        for s in range(60)
    )
    assert lams > base


def test_default_weights_cover_every_rule():
    from l2int.derivation import RULES

    assert set(DEFAULT_WEIGHTS) == set(RULES)
    assert all(w > 0 for w in DEFAULT_WEIGHTS.values())


def test_gen_formula_and_basis_deterministic():
    f1 = gen_formula(random.Random(9))
    f2 = gen_formula(random.Random(9))
    assert f1 == f2
    b1 = gen_basis(random.Random(9))
    b2 = gen_basis(random.Random(9))
    assert b1 == b2
    assert _atoms(f1) <= {"a", "b", "c"}


# ------------------------------------------------------------------ oracle


def test_oracle_on_a_beta_redex():
    t = parse_term("app+((\\x+. x+)+, top+)")
    r = oracle_reduce_all(t)
    assert r.complete
    assert len(r.reachable) == 2
    assert [print_term(n) for n in r.normal_forms] == ["top+"]


def test_oracle_on_a_normal_term():
    t = parse_term("top+")
    r = oracle_reduce_all(t)
    assert r.complete
    assert [print_term(u) for u in r.reachable] == ["top+"]
    assert [print_term(n) for n in r.normal_forms] == ["top+"]


def test_oracle_joins_both_simp_branches():
    t = parse_term("case z+ {x+. top+ | y+. top+}+")
    r = oracle_reduce_all(t)
    assert r.complete
    assert len(r.normal_forms) == 1
    assert print_term(r.normal_forms[0]) == "top+"


def test_oracle_depth_exhaustion_is_flagged():
    t = parse_term("app+((\\x+. x+)+, top+)")
    r = oracle_reduce_all(t, max_depth=0)
    assert not r.complete
    assert r.normal_forms == []


def test_oracle_agrees_with_canonical_normalize():
    from l2int.syntax import alpha_key

    for seed in range(80):
        d = gen_derivation(GenConfig(seed=seed, max_height=4))
        t = d.concl.term
        if term_size(t) > 12:
            continue
        r = oracle_reduce_all(t)
        if not r.complete:
            continue
        nf = normalize(t).term
        assert alpha_key(nf) in {alpha_key(n) for n in r.normal_forms}


@hyp.given(st.integers(0, 5000))
@hyp.settings(max_examples=80, deadline=None)
def test_generated_end_terms_are_well_polarized(seed):
    d = gen_derivation(GenConfig(seed=seed, max_height=6))
    assert check_polarities(d.concl.term) == []


def test_rule_weights_are_checked():
    for weights in (
        {"ImpI ": 50.0},  # no such rule
        {"impi": 1.0},
        {"ImpI": math.inf},
        {"ImpI": math.nan},
        {"ImpI": -1.0},
        {"OrE": 1.0, "CoImpE_d": -math.inf},
    ):
        with pytest.raises(ValueError):
            GenConfig(rule_weights=weights)
    zero = GenConfig(seed=3, rule_weights={"ImpI": 0.0, "Hyp+": 1e9})
    assert validate(gen_derivation(zero)) == []


@pytest.mark.parametrize("name", ["standard", "redex_heavy"])
def test_generation_matches_golden_output(name):
    # One line per seed 0-39 with the default height: derivation_to_json(...,
    # indent=None) as the generator wrote it before it read the rule table.
    from test_acceptance import REDEX_HEAVY_WEIGHTS

    weights = {"standard": {}, "redex_heavy": REDEX_HEAVY_WEIGHTS}[name]
    want = (DATA / f"gen_{name}.jsonl").read_text().splitlines()
    assert len(want) == 40
    for seed, line in enumerate(want):
        d = gen_derivation(GenConfig(seed=seed, rule_weights=weights))
        assert derivation_to_json(d, indent=None) == line, seed
