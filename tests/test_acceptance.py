"""Whole-system acceptance suite: nine headline properties at scale, and
a differential check of `normalize` against its former code on the same
corpora.

Each test checks one property and prints as a single pytest line.  The
random corpora are built once per session and shared; generation time is
charged to the first property that uses a corpus with a time bound.
"""

from __future__ import annotations

import random
import time
import warnings
from collections import Counter
from itertools import combinations

import pytest

from l2int.derivation import RULES, height, validate
from l2int.duality import dual_basis, dual_derivation, dual_formula, dual_term
from l2int.meaning import (
    DISTINCT,
    IDENTICAL,
    IDENTICAL_MODULO_DUALITY,
    NON_SYNONYMOUS,
    SYNONYMOUS,
    identical,
    identity_verdict,
    synonymous,
    synonymy_verdict,
)
from l2int.rewrite import RedexPosition, find_redexes, normalize, step
from l2int.syntax import (
    MINUS,
    PLUS,
    Basis,
    CoImp,
    Imp,
    MetaVar,
    MPair,
    alpha_eq,
    alpha_key,
    Var,
    free_vars,
    substitute,
    subterm_at,
    term_size,
)
from l2int.testkit import (
    GenConfig,
    GenerationFailed,
    gen_basis,
    gen_derivation,
    gen_derivation_of,
    gen_formula,
    oracle_reduce_all,
)
from l2int.textio import derivation_from_json, parse_formula, parse_term, print_term
from l2int.typecheck import TypeScheme, Untypable, check, infer_principal, schemes_equal

from former import former_normalize
from conftest import (
    DATA,
    WORKED_FIRST_TERM,
    WORKED_FIRST_TYPE,
    WORKED_SECOND_TERM,
    WORKED_SECOND_TYPE,
    build_worked_first,
    build_worked_second,
    load_worked_pair,
)

BETA_DETAILS = (
    "beta-App", "beta-Pi1", "beta-Pi2", "beta-Fst", "beta-Snd",
    "beta-CaseInl", "beta-CaseInr",
)
PERM_DETAILS = (
    "perm-App", "perm-Pi1", "perm-Pi2", "perm-Fst", "perm-Snd",
    "perm-Case+", "perm-Case-",
)

# Weight profile that favours eliminations applied to introductions, so the
# generated corpus is dense in redexes of every clause.
REDEX_HEAVY_WEIGHTS = {
    "Hyp+": 2.0, "Hyp-": 2.0,
    "ImpE": 2.2, "CoImpE_d": 2.2,
    "ImpI": 2.0, "CoImpI_d": 2.0,
    "AndE1": 1.4, "AndE2": 1.4, "OrE_d1": 1.4, "OrE_d2": 1.4,
    "AndI": 1.6, "OrI_d": 1.6,
    "ImpI_d": 1.8, "CoImpI": 1.8,
    "ImpE_d1": 1.4, "ImpE_d2": 1.4, "CoImpE1": 1.4, "CoImpE2": 1.4,
    "OrE": 1.6, "AndE_d": 1.6,
    "OrI1": 1.2, "OrI2": 1.2, "AndI_d1": 1.2, "AndI_d2": 1.2,
}


def _collect(count, max_height, rule_weights=None, first_seed=0):
    out = []
    seed = first_seed
    while len(out) < count:
        cfg = GenConfig(
            seed=seed, max_height=max_height, rule_weights=rule_weights or {}
        )
        seed += 1
        try:
            out.append(gen_derivation(cfg))
        except GenerationFailed:
            continue
    return out


@pytest.fixture(scope="session")
def standard_corpus():
    """10,000 valid derivations of height at most 8, plus build time."""
    t0 = time.perf_counter()
    ds = _collect(10_000, max_height=8)
    return ds, time.perf_counter() - t0


@pytest.fixture(scope="session")
def redex_heavy_corpus():
    """10,000 valid derivations biased towards redex-rich end terms."""
    return _collect(10_000, max_height=8, rule_weights=REDEX_HEAVY_WEIGHTS)


@pytest.fixture(scope="session")
def small_term_corpus():
    """At least 5,000 typable end terms of at most 12 nodes, plus build time."""
    t0 = time.perf_counter()
    out = []
    seed = 8_000_000
    while len(out) < 5_000 and seed < 8_400_000:
        try:
            d = gen_derivation(GenConfig(seed=seed, max_height=3))
        except GenerationFailed:
            seed += 1
            continue
        seed += 1
        if term_size(d.concl.term) <= 12:
            out.append(d.concl.term)
    assert len(out) >= 5_000
    return out, time.perf_counter() - t0


def _rules_used(d, acc):
    acc.add(d.rule)
    for p in d.prems:
        _rules_used(p, acc)


def test_01_worked_pair_golden_roundtrip():
    t0 = time.perf_counter()
    first = build_worked_first()
    second = build_worked_second()
    assert validate(first) == []
    assert validate(second) == []
    assert print_term(first.concl.term) == WORKED_FIRST_TERM
    assert parse_formula(WORKED_FIRST_TYPE) == first.concl.type
    dd = dual_derivation(first)
    assert dd == second
    assert print_term(dd.concl.term) == WORKED_SECOND_TERM
    assert parse_formula(WORKED_SECOND_TYPE) == dd.concl.type
    assert height(dd) <= height(first)
    assert height(first) == 4
    assert height(second) == 4
    frozen_first, frozen_second = load_worked_pair()
    assert frozen_first == first
    assert frozen_second == second
    assert time.perf_counter() - t0 < 1.0


def test_02_dualization_preserves_validity_at_scale(standard_corpus):
    ds, gen_seconds = standard_corpus
    t0 = time.perf_counter()
    seen = set()
    for d in ds:
        _rules_used(d, seen)
        dd = dual_derivation(d)
        assert validate(dd) == []
        j, k = d.concl, dd.concl
        assert k.basis == dual_basis(j.basis)
        assert k.pol is j.pol.flip()
        assert k.term == dual_term(j.term)
        assert k.type == dual_formula(j.type)
        assert height(dd) <= height(d)
        assert height(dd) == height(d)
    assert seen == set(RULES)
    assert gen_seconds + time.perf_counter() - t0 < 60.0


def test_03_subject_reduction_at_scale(redex_heavy_corpus):
    counts = Counter()
    for d in redex_heavy_corpus:
        j = d.concl
        for r in find_redexes(j.term):
            reduct = step(j.term, r)
            again = check(j.basis, j.pol, reduct, j.type)
            assert again.concl.basis == j.basis
            assert again.concl.pol is j.pol
            assert again.concl.type == j.type
            assert alpha_eq(again.concl.term, reduct)
            counts[r.detail] += 1
    for detail in BETA_DETAILS + PERM_DETAILS:
        assert counts[detail] >= 100, detail
    assert counts["simp-left"] + counts["simp-right"] >= 100


def _dual_path(t, path):
    """Where the subterm at path lands in the dual term."""
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


def _dual_redex(t, r):
    return RedexPosition(
        _dual_path(t, r.path), r.kind, _DETAIL_DUAL.get(r.detail, r.detail)
    )


def test_04_duality_involution_and_step_commutation(standard_corpus, redex_heavy_corpus):
    rng = random.Random(401)
    for _ in range(10_000):
        f = gen_formula(rng)
        assert dual_formula(dual_formula(f)) == f
    rng = random.Random(402)
    for _ in range(10_000):
        b = gen_basis(rng)
        assert dual_basis(dual_basis(b)) == b
    ds, _ = standard_corpus
    for d in ds:
        t = d.concl.term
        assert dual_term(dual_term(t)) == t

    sampled = 0
    for d in ds + redex_heavy_corpus:
        if sampled >= 5_000:
            break
        t = d.concl.term
        dt = dual_term(t)
        for r in find_redexes(t):
            if sampled >= 5_000:
                break
            mirrored = _dual_redex(t, r)
            assert mirrored.kind == r.kind
            assert step(dt, mirrored) == dual_term(step(t, r))
            sampled += 1
    assert sampled == 5_000


def _basis_without(b, name, pol):
    gamma = {n: f for n, f in b.gamma if not (pol is PLUS and n == name)}
    delta = {n: f for n, f in b.delta if not (pol is MINUS and n == name)}
    return Basis.make(gamma, delta)


def _merge(b, other):
    """b with other's assumptions added; other's formula wins a name both
    assume at one polarity."""
    return Basis.make({**dict(b.gamma), **dict(other.gamma)}, {**dict(b.delta), **dict(other.delta)})


def _prefixed(d):
    """The end judgment of d with every assumption renamed apart."""
    j = d.concl
    t = j.term
    for name, pol in sorted(free_vars(t), key=lambda v: (v[0], v[1].value)):
        t = substitute(t, name, pol, Var("s_" + name, pol))
    basis = Basis.make(
        {"s_" + n: f for n, f in j.basis.gamma},
        {"s_" + n: f for n, f in j.basis.delta},
    )
    return basis, t


def test_05_substitution_preserves_checkability(standard_corpus):
    ds, _ = standard_corpus
    needed = {PLUS: 1_000, MINUS: 1_000}
    done = {PLUS: 0, MINUS: 0}
    gen_seed = 5_000_000
    for d in ds:
        if done[PLUS] >= needed[PLUS] and done[MINUS] >= needed[MINUS]:
            break
        j = d.concl
        by_pol = {PLUS: [], MINUS: []}
        for name, pol in sorted(free_vars(j.term), key=lambda v: (v[0], v[1].value)):
            by_pol[pol].append(name)
        for pol in (PLUS, MINUS):
            if done[pol] >= needed[pol] or not by_pol[pol]:
                continue
            name = by_pol[pol][0]
            goal = j.basis.lookup(name, pol)
            try:
                s_d = gen_derivation_of(
                    GenConfig(seed=gen_seed, max_height=4), goal, pol
                )
            except GenerationFailed:
                gen_seed += 1
                continue
            gen_seed += 1
            assert s_d.concl.type == goal
            s_basis, s_term = _prefixed(s_d)
            target = substitute(j.term, name, pol, s_term)
            merged = _merge(_basis_without(j.basis, name, pol), s_basis)
            again = check(merged, j.pol, target, j.type)
            assert again.concl.type == j.type
            assert again.concl.pol is j.pol
            done[pol] += 1
    assert done[PLUS] == 1_000
    assert done[MINUS] == 1_000


def _proof_identity(binder, atom):
    term = parse_term(f"(\\{binder}+. {binder}+)+")
    return check(Basis(), PLUS, term, parse_formula(f"{atom} -> {atom}"))


def _refutation_identity(binder, atom):
    term = parse_term(f"(\\{binder}-. {binder}-)-")
    return check(Basis(), MINUS, term, parse_formula(f"{atom} -< {atom}"))


def test_06_identity_combinator_meaning_matrix():
    pluses = [
        _proof_identity("x", "rho"),
        _proof_identity("x", "sigma"),
        _proof_identity("y", "sigma"),
    ]
    minuses = [
        _refutation_identity("x", "rho"),
        _refutation_identity("x", "sigma"),
        _refutation_identity("y", "sigma"),
    ]
    for group in (pluses, minuses):
        for a, b in combinations(group, 2):
            assert synonymy_verdict(a, b) == SYNONYMOUS
            assert synonymous(a, b)
            assert identity_verdict(a.concl.term, b.concl.term) == IDENTICAL
            assert identical(a.concl.term, b.concl.term)
    for p in pluses:
        for m in minuses:
            assert synonymy_verdict(p, m) == NON_SYNONYMOUS
            assert not synonymous(p, m)
            assert identity_verdict(p.concl.term, m.concl.term) == DISTINCT
            verdict = identity_verdict(p.concl.term, m.concl.term, modulo_duality=True)
            assert verdict == IDENTICAL_MODULO_DUALITY


def test_07_principal_types_of_identity_combinators():
    p = infer_principal(parse_term("(\\x+. x+)+"))
    assert p.basis.is_empty()
    assert p.pol is PLUS
    assert schemes_equal(p.scheme, TypeScheme(("A",), Imp(MetaVar("A"), MetaVar("A"))))
    m = infer_principal(parse_term("(\\x-. x-)-"))
    assert m.basis.is_empty()
    assert m.pol is MINUS
    assert schemes_equal(m.scheme, TypeScheme(("A",), CoImp(MetaVar("A"), MetaVar("A"))))
    with pytest.raises(Untypable):
        infer_principal(parse_term("app+(x+, x+)"))


def test_08_confluence_probe_on_small_terms(small_term_corpus):
    terms, build_seconds = small_term_corpus
    t0 = time.perf_counter()
    out_of_depth, divergent = [], []
    for t in terms:
        result = oracle_reduce_all(t, max_depth=64)
        if not result.complete:
            out_of_depth.append(print_term(t))
            continue
        canonical = normalize(t)
        assert not canonical.exhausted
        keys = {alpha_key(nf) for nf in result.normal_forms}
        assert alpha_key(canonical.term) in keys
        if len(keys) != 1:
            divergent.append(f"{len(keys)} normal forms: {print_term(t)}")
    if out_of_depth or divergent:
        warnings.warn(
            f"confluence probe over {len(terms)} terms: closure ran out of depth "
            f"on {len(out_of_depth)}, more than one normal form on {len(divergent)}; "
            f"first: {(divergent + out_of_depth)[0]}"
        )
    assert build_seconds + time.perf_counter() - t0 < 300.0


def test_09_fuel_adequacy_across_corpora(
    standard_corpus, redex_heavy_corpus, small_term_corpus
):
    ds, _ = standard_corpus
    small, _ = small_term_corpus
    sources = {
        "standard": [d.concl.term for d in ds],
        "redex-heavy": [d.concl.term for d in redex_heavy_corpus],
        "small": small,
    }
    checked = Counter()
    for label, terms in sources.items():
        for t in terms:
            if term_size(t) > 60:
                continue
            result = normalize(t, 10_000)
            assert not result.exhausted
            checked[label] += 1
    for label in sources:
        assert checked[label] >= 1_000, label


def _node_terms(d):
    yield d.concl.term
    for p in d.prems:
        yield from _node_terms(p)


def test_normalize_traces_match_former_normalize(
    standard_corpus, redex_heavy_corpus, small_term_corpus
):
    # The same terms test_09 normalizes, and every node of tests/data.
    files = [p.read_text() for p in sorted(DATA.glob("*.json"))]
    files += [line for p in sorted(DATA.glob("*.jsonl")) for line in p.read_text().splitlines()]
    sources = {
        "data": [t for text in files for t in _node_terms(derivation_from_json(text))],
        "standard": [d.concl.term for d in standard_corpus[0]],
        "redex-heavy": [d.concl.term for d in redex_heavy_corpus],
        "small": small_term_corpus[0],
    }
    for label, terms in sources.items():
        for t in terms:
            if term_size(t) <= 60:
                assert normalize(t, 10_000) == former_normalize(t, 10_000), (label, print_term(t))
