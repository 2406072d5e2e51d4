import hypothesis as hyp
import hypothesis.strategies as st
import pytest

from former import (
    former_find_redexes,
    former_free_vars,
    former_normalize,
    former_step,
    rescan_find_redexes,
    rescan_normalize,
    rescan_step,
)
from l2int.meaning import IDENTICAL, identity_verdict
from l2int.rewrite import (
    DEFAULT_FUEL,
    KINDS,
    NormalizeResult,
    NotARedex,
    RedexPosition,
    find_redexes,
    is_normal,
    normalize,
    step,
)
from l2int.syntax import (
    PLUS,
    Case,
    Lam,
    PolarityMismatch,
    Top,
    Var,
    alpha_eq,
    children,
    free_vars,
    substitute,
    term_size,
    with_children,
)
from l2int.testkit import GenConfig, gen_derivation
from l2int.textio import parse_term, print_term
from test_syntax import TERMS


def reduce_once(src: str) -> str:
    t = parse_term(src)
    rs = find_redexes(t)
    assert len(rs) >= 1
    return print_term(step(t, rs[0]))


def only_detail(src: str) -> str:
    rs = find_redexes(parse_term(src))
    assert len(rs) == 1
    return rs[0].detail


# ------------------------------------------------------- one golden a clause


def test_beta_app():
    assert only_detail("app+((\\x+. x+)+, top+)") == "beta-App"
    assert reduce_once("app+((\\x+. x+)+, top+)") == "top+"
    assert reduce_once("app-((\\x-. <x-, x->-)-, bot-)") == "<bot-, bot->-"


def test_beta_pi1():
    assert reduce_once("p1+({top+, bot-}+)") == "top+"
    assert reduce_once("p1+({top+, bot-}-)") == "top+"


def test_beta_pi2():
    assert reduce_once("p2-({top+, bot-}+)") == "bot-"


def test_beta_fst():
    assert reduce_once("fst+(<top+, y+>+)") == "top+"


def test_beta_snd():
    assert reduce_once("snd-(<x-, bot->-)") == "bot-"


def test_beta_case_inl():
    got = reduce_once("case inl+(top+) {x+. <x+, x+>+ | y+. <y+, y+>+}+")
    assert got == "<top+, top+>+"


def test_beta_case_inr():
    got = reduce_once("case inr-(bot-) {x-. x- | y-. <y-, y->-}-")
    assert got == "<bot-, bot->-"


def test_perm_app():
    got = reduce_once("app+(case z+ {x+. f+ | y+. g+}+, w+)")
    assert got == "case z+ {x+. app+(f+, w+) | y+. app+(g+, w+)}+"


def test_perm_app_avoids_capture():
    # the argument's free x+ must not be captured by the branch binder
    got = reduce_once("app+(case z+ {x+. f+ | y+. g+}+, x+)")
    assert got == "case z+ {x1+. app+(f+, x+) | y+. app+(g+, x+)}+"
    got = reduce_once("app+(case z+ {x+. f+ | y+. g+}+, <x+, x1+>+)")
    assert got == "case z+ {x2+. app+(f+, <x+, x1+>+) | y+. app+(g+, <x+, x1+>+)}+"


def test_perm_pi1_result_is_positive():
    got = reduce_once("p1+(case z- {x-. u- | y-. w-}-)")
    assert got == "case z- {x-. p1+(u-) | y-. p1+(w-)}+"


def test_perm_pi2_result_is_negative():
    got = reduce_once("p2-(case z+ {x+. u+ | y+. w+}+)")
    assert got == "case z+ {x+. p2-(u+) | y+. p2-(w+)}-"


def test_perm_fst():
    got = reduce_once("fst+(case z+ {x+. u+ | y+. w+}+)")
    assert got == "case z+ {x+. fst+(u+) | y+. fst+(w+)}+"


def test_perm_snd():
    got = reduce_once("snd-(case z- {x-. u- | y-. w-}-)")
    assert got == "case z- {x-. snd-(u-) | y-. snd-(w-)}-"


def test_perm_case_positive():
    src = "case case z+ {x+. u+ | y+. w+}+ {a+. s+ | b+. t+}+"
    rs = find_redexes(parse_term(src))
    assert [r.detail for r in rs if r.kind == "perm"] == ["perm-Case+"]
    got = reduce_once(src)
    assert got == (
        "case z+ {x+. case u+ {a+. s+ | b+. t+}+"
        " | y+. case w+ {a+. s+ | b+. t+}+}+"
    )


def test_perm_case_negative():
    src = "case case z- {x-. u- | y-. w-}- {a-. s- | b-. t-}-"
    rs = find_redexes(parse_term(src))
    assert [r.detail for r in rs if r.kind == "perm"] == ["perm-Case-"]


def test_perm_case_avoids_capture():
    # outer branches mention x+ free; the inner binder x must move aside
    src = "case case z+ {x+. x+ | y+. y+}+ {a+. x+ | b+. top+}+"
    got = reduce_once(src)
    assert got == (
        "case z+ {x1+. case x1+ {a+. x+ | b+. top+}+"
        " | y+. case y+ {a+. x+ | b+. top+}+}+"
    )


def test_simp_left_preferred():
    t = parse_term("case z+ {x+. top+ | y+. w+}+")
    assert [r.detail for r in find_redexes(t)] == ["simp-left", "simp-right"]
    assert print_term(step(t, find_redexes(t)[0])) == "top+"
    assert print_term(normalize(t).term) == "top+"


def test_simp_right():
    assert only_detail("case z+ {x+. x+ | y+. w+}+") == "simp-right"
    assert reduce_once("case z+ {x+. x+ | y+. w+}+") == "w+"


def test_simp_needs_both_binders_absent():
    # each branch needs only its own binder absent: branch1's y+ is free,
    # not the other branch's binder, so renaming that binder changes nothing
    def redexes(src):
        return find_redexes(parse_term(src))

    assert redexes("case z+ {x+. y+ | y+. w+}+") == redexes("case z+ {x+. y+ | v+. w+}+")
    assert find_redexes(parse_term("case z+ {x+. x+ | y+. y+}+")) == []


# ------------------------------------------------------------ normalization


def test_normalize_golden_trace():
    t = parse_term("p1+(case z- {x-. {top+, x-}- | y-. {top+, y-}-}-)")
    r = normalize(t)
    assert not r.exhausted
    assert print_term(r.term) == "top+"
    assert [s.position.detail for s in r.steps] == [
        "perm-Pi1", "beta-Pi1", "beta-Pi1", "simp-left",
    ]
    assert [s.position.path for s in r.steps] == [(), (1,), (2,), ()]
    mid = r.steps[2].after
    assert print_term(mid) == "case z- {x-. top+ | y-. top+}+"


def test_normalize_beta_before_perm():
    # a beta deeper in the term wins over an outer perm
    t = parse_term("fst+(case z+ {x+. snd+(<u+, w+>+) | y+. y+}+)")
    r = normalize(t)
    assert r.steps[0].position.detail == "beta-Snd"


def test_normalize_leftmost_outermost_within_kind():
    t = parse_term("<fst+(<a+, b+>+), fst+(<c+, d+>+)>+")
    r = normalize(t)
    assert [s.position.path for s in r.steps] == [(0,), (1,)]
    assert print_term(r.term) == "<a+, c+>+"


def test_normalize_already_normal():
    r = normalize(parse_term("top+"), fuel=0)
    assert r.term == parse_term("top+")
    assert r.steps == [] and not r.exhausted


def test_normalize_fuel_exhaustion_keeps_trace():
    t = parse_term("p1+(case z- {x-. {top+, x-}- | y-. {top+, y-}-}-)")
    r = normalize(t, fuel=2)
    assert r.exhausted
    assert len(r.steps) == 2
    assert r.term == r.steps[-1].after
    assert not is_normal(r.term)


def test_default_fuel():
    assert DEFAULT_FUEL == 10_000


def test_step_rejects_non_redex():
    t = parse_term("top+")
    with pytest.raises(NotARedex):
        step(t, RedexPosition((), "beta", "beta-App"))
    nested = parse_term("app+(f+, x+)")
    with pytest.raises(NotARedex):
        step(nested, RedexPosition((0,), "beta", "beta-App"))


def test_is_normal():
    assert is_normal(parse_term("(\\x+. x+)+"))
    assert is_normal(parse_term("app+(f+, x+)"))
    assert not is_normal(parse_term("app+((\\x+. x+)+, y+)"))


# ------------------------------------------------------------- invariants


@hyp.given(st.integers(0, 4000))
@hyp.settings(max_examples=60, deadline=None)
def test_normalize_idempotent(seed):
    d = gen_derivation(GenConfig(seed=seed, max_height=6))
    r = normalize(d.concl.term)
    if r.exhausted:
        return
    again = normalize(r.term)
    assert again.steps == []
    assert again.term == r.term


@hyp.given(st.integers(0, 4000))
@hyp.settings(max_examples=60, deadline=None)
def test_step_preserves_free_variables(seed):
    d = gen_derivation(GenConfig(seed=seed, max_height=6))
    t = d.concl.term
    for _ in range(50):
        rs = find_redexes(t)
        if not rs:
            break
        before = free_vars(t)
        t = step(t, rs[0])
        assert free_vars(t) <= before


@hyp.given(st.integers(0, 4000))
@hyp.settings(max_examples=40, deadline=None)
def test_normal_forms_alpha_stable(seed):
    d = gen_derivation(GenConfig(seed=seed, max_height=5))
    r = normalize(d.concl.term)
    if not r.exhausted:
        assert alpha_eq(r.term, normalize(r.term).term)
        assert term_size(r.term) >= 1


# ------------------------------------------- against the former rewrite code


def _sibling_binder_free(t) -> bool:
    """Whether some case in t has a branch in which the other branch's
    binder is free; only there did the former simp test differ."""
    match t:
        case Case(r, x, s, y, u, _):
            if (y, r.pol) in former_free_vars(s) or (x, r.pol) in former_free_vars(u):
                return True
    return any(_sibling_binder_free(c) for c in children(t))


def _outcome(f, *args):
    try:
        return f(*args)
    except (PolarityMismatch, NotARedex) as e:
        return type(e).__name__, str(e)


@hyp.given(TERMS)
@hyp.settings(max_examples=400, deadline=None)
def test_rewrite_matches_former_rewrite(t):
    # Redexes and contractions agree along the canonical path until a term
    # with a sibling's binder free is reached; normalize agrees when its
    # former trace reaches none.
    u = t
    for _ in range(12):
        if _sibling_binder_free(u):
            break
        rs = find_redexes(u)
        assert rs == former_find_redexes(u)
        for r in rs + [RedexPosition(r.path, "beta", "beta-App") for r in rs]:
            assert _outcome(step, u, r) == _outcome(former_step, u, r)
        if not rs:
            break
        u = _outcome(step, u, min(rs, key=lambda r: KINDS.index(r.kind)))
        if isinstance(u, tuple):
            break
    want = _outcome(former_normalize, t, 12)
    if isinstance(want, NormalizeResult):
        if not any(map(_sibling_binder_free, [t, *(s.after for s in want.steps)])):
            assert normalize(t, 12) == want


# ---------------------------------- against the normalizer that rescanned

# Positions to step besides each redex found: every kind and detail, so a
# position holding a redex of another kind or family is asked for too.
_ASKED = [("beta", "beta-App"), ("beta", "beta-CaseInr"), ("perm", "perm-Case+"), ("perm", "perm-Fst"),
          ("simp", "simp-left"), ("simp", "simp-right"), ("simp", "beta-App")]


def _matches_rescan(t, most: int) -> None:
    """find_redexes, is_normal and step agree with the former code on t,
    and normalize does at every fuel from 0 to one past the steps the
    former normalize takes, or to most where it takes more or fails."""
    rs = find_redexes(t)
    assert rs == rescan_find_redexes(t)
    assert is_normal(t) == (rs == [])
    for r in rs + [RedexPosition(r.path, *kd) for r in rs for kd in _ASKED]:
        assert _outcome(step, t, r) == _outcome(rescan_step, t, r)
    want = _outcome(rescan_normalize, t, most)
    for fuel in range(len(want.steps) + 2 if isinstance(want, NormalizeResult) else most + 1):
        assert _outcome(normalize, t, fuel) == _outcome(rescan_normalize, t, fuel)


@hyp.given(TERMS)
@hyp.settings(max_examples=300, deadline=None)
def test_rewrite_matches_the_normalizer_that_rescanned(t):
    _matches_rescan(t, 20)


@hyp.given(st.integers(0, 10_000))
@hyp.settings(max_examples=100, deadline=None)
def test_generated_terms_rewrite_as_the_normalizer_that_rescanned(seed):
    # Typed terms with eliminations weighted up, so betas and perms meet.
    weights = {"OrE": 4.0, "AndE_d": 4.0, "ImpE": 3.0, "CoImpE_d": 3.0}
    t = gen_derivation(GenConfig(seed=seed, max_height=6, rule_weights=weights)).concl.term
    hyp.assume(term_size(t) <= 40)
    _matches_rescan(t, 40)


@pytest.mark.parametrize(
    "src",
    [
        "case z+ {x+. (\\x+. x+)+ | y+. y+}+",
        "case z+ {x+. case w+ {x+. x+ | v+. v+}+ | y+. y+}+",
        "case z+ {x+. y+ | y+. case w+ {v+. v+ | y+. y+}+}+",
        "app+((\\x+. case z+ {x+. (\\x+. x+)+ | y+. x+}+)+, w+)",
    ],
)
def test_a_binder_bound_again_below_matches_the_normalizer_that_rescanned(src):
    # Each case's binder is bound again inside its branch, so the branch
    # uses it only if a scan drops the inner binder's variable.
    _matches_rescan(parse_term(src), 20)


def _case_chain(n: int):
    """case z+ {x+. case z+ {x+. ... y+ | x+. y+}+ | x+. y+}+, n levels:
    a simp at every level, each contracted at the root in turn."""
    y = Var("y", PLUS)
    t = y
    for _ in range(n):
        t = Case(Var("z", PLUS), "x", t, "x", y, PLUS)
    return t


def test_rewrite_on_a_case_chain_matches_the_normalizer_that_rescanned():
    t = _case_chain(30)
    _matches_rescan(t, 40)
    assert len(normalize(t).steps) == 30


def _renamed(t, draw):
    """t with each binder renamed to draw(names) of names: its own name, a
    fresh one, or one free in the other branch of its case, so long as the
    name is not free in the binder's scope."""

    def pick(name, pol, body, other=Top()):
        avoid = free_vars(body) - {(name, pol)}
        near = sorted(n for n, p in free_vars(other) if p is pol)
        x = draw([n for n in [name, "r", *near] if (n, pol) not in avoid])
        return x, _renamed(substitute(body, name, pol, Var(x, pol)), draw)

    match t:
        case Lam(b, body, p):
            return Lam(*pick(b, p, body), p)
        case Case(r, x, s, y, u, p):
            return Case(_renamed(r, draw), *pick(x, r.pol, s, u), *pick(y, r.pol, u, s), p)
    return with_children(t, tuple(_renamed(c, draw) for c in children(t)))


@hyp.given(st.integers(0, 10_000), st.data())
@hyp.settings(max_examples=150, deadline=None)
def test_redexes_and_normal_forms_are_alpha_invariant(seed, data):
    weights = {"OrE": 4.0, "AndE_d": 4.0}
    t = gen_derivation(GenConfig(seed=seed, max_height=5, rule_weights=weights)).concl.term
    hyp.assume(term_size(t) <= 30)
    u = _renamed(t, lambda names: data.draw(st.sampled_from(names)))
    assert alpha_eq(t, u)
    where = lambda rs: [(r.kind, r.detail, r.path) for r in rs]
    assert where(find_redexes(t)) == where(find_redexes(u))
    rt, ru = normalize(t), normalize(u)
    assert alpha_eq(rt.term, ru.term)
    assert where(s.position for s in rt.steps) == where(s.position for s in ru.steps)
    assert identity_verdict(t, u) == IDENTICAL
