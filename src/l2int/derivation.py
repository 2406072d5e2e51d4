"""Derivation trees, the rule table of 2Int, the polarity check of terms
and rule-by-rule validation.

A judgment reads (gamma; delta) =>p t : A, with p the polarity of the
subject term t.  Each node names one of the 26 rules (plus the two
assumption leaves Hyp+ and Hyp-) and must match that rule's schema
exactly: conclusion shape, premise count, premise polarities and types,
and basis bookkeeping.  Bases are passed whole to every premise; a
discharging rule may extend the premise basis with exactly the assumption
it discharges.  Extra unused assumptions are allowed, shadowing one name
at one polarity with two formulas is not.

`RULE_TABLE` states each rule once, as data: its term constructor, the
polarity that selects it, its conclusion as a formula pattern over the
pattern variables A, B and C, and its premises, in the order of the term's
children, each with its polarity, its pattern and the assumption it
discharges.  Only the 14 primal rows are written out; the 14 dual rows
(Hyp- and the `_d` rules) are computed from them, as the Dualization
Theorem says they may be: polarities flip, patterns dualize, p1 and p2
trade places and the mixed pair's premises swap.  `validate`,
`check_polarities` (each child's polarity), `typecheck.check` (as it
pushes known formulas down), the typing walk of `typecheck` (behind
`infer_principal`, `check`'s error replay and `meaning.sense`), the
generator and `dual_derivation` all read this table; `duality.dual_term`
reads the constructor side of duality, `_DUAL_CTOR` and `dual_premises`,
too.  Only the nouns of `check_polarities`'s messages are written per
constructor.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import (
    PLUS,
    MINUS,
    Abort,
    And,
    App,
    Basis,
    Bot,
    Case,
    CoImp,
    Connective,
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
    Polarity,
    Snd,
    Term,
    Top,
    Var,
    Verum,
    binders,
    children,
    dual_formula,
    metavars_of,
)

@dataclass(frozen=True)
class Judgment:
    basis: Basis
    pol: Polarity
    term: Term
    type: Formula


@dataclass(frozen=True)
class Derivation:
    rule: str
    concl: Judgment
    prems: tuple["Derivation", ...] = ()


def height(d: Derivation) -> int:
    """Rules above the deepest leaf, in one frame per level."""
    if d.rule in ("Hyp+", "Hyp-"):
        return 0
    h = 0
    for p in d.prems:
        h = max(h, height(p))
    return 1 + h


# ------------------------------------------------------------ the rule table


@dataclass(frozen=True)
class Premise:
    """pol is None for a case branch, which takes the conclusion's polarity.
    binds is the polarity and the formula of the assumption the premise
    discharges; the term's binder over that child (`syntax.binders`) names
    it."""

    pol: Polarity | None
    type: Formula
    binds: tuple[Polarity, Formula] | None = None

    @property
    def variables(self) -> set[str]:
        """The pattern variables of its formula and its discharged one."""
        discharged = (self.binds[1],) if self.binds else ()
        return set(metavars_of(self.type, *discharged))


@dataclass(frozen=True)
class Rule:
    """pol is the subject term's polarity, None where the rule allows
    either (abort and case)."""

    name: str
    dual: str
    ctor: type
    pol: Polarity | None
    concl: Formula
    prems: tuple[Premise, ...] = ()


# The polarity of an abort, a case or a projection of a mixed pair does
# not tell its rules apart; its first premise's polarity does.
_BY_PREMISE = (Abort, Case, Pi1, Pi2)

A, B, C = MetaVar("A"), MetaVar("B"), MetaVar("C")

_PRIMAL = (
    Rule("Hyp+", "Hyp-", Var, PLUS, A),
    Rule("TopI", "BotI_d", Top, PLUS, Verum()),
    Rule("BotE", "TopE_d", Abort, None, C, (Premise(PLUS, Falsum()),)),
    Rule("AndI", "OrI_d", Pair, PLUS, And(A, B), (Premise(PLUS, A), Premise(PLUS, B))),
    Rule("AndE1", "OrE_d1", Fst, PLUS, A, (Premise(PLUS, And(A, B)),)),
    Rule("AndE2", "OrE_d2", Snd, PLUS, B, (Premise(PLUS, And(A, B)),)),
    Rule("OrI1", "AndI_d1", Inl, PLUS, Or(A, B), (Premise(PLUS, A),)),
    Rule("OrI2", "AndI_d2", Inr, PLUS, Or(A, B), (Premise(PLUS, B),)),
    Rule("OrE", "AndE_d", Case, None, C, (
        Premise(PLUS, Or(A, B)),
        Premise(None, C, (PLUS, A)),
        Premise(None, C, (PLUS, B)),
    )),
    Rule("ImpI", "CoImpI_d", Lam, PLUS, Imp(A, B), (Premise(PLUS, B, (PLUS, A)),)),
    Rule("ImpE", "CoImpE_d", App, PLUS, B, (Premise(PLUS, Imp(A, B)), Premise(PLUS, A))),
    Rule("CoImpI", "ImpI_d", MPair, PLUS, CoImp(A, B), (Premise(PLUS, A), Premise(MINUS, B))),
    Rule("CoImpE1", "ImpE_d2", Pi1, PLUS, A, (Premise(PLUS, CoImp(A, B)),)),
    Rule("CoImpE2", "ImpE_d1", Pi2, MINUS, B, (Premise(PLUS, CoImp(A, B)),)),
)

_DUAL_CTOR = {Top: Bot, Bot: Top, Pi1: Pi2, Pi2: Pi1}


def dual_premises(ctor: type, prems: tuple) -> tuple:
    """prems, one per child of a ctor term or premise of its rule, in the
    order of the dual's: the components of a mixed pair swap under
    duality."""
    return prems[::-1] if ctor is MPair else prems


def _flip(pol: Polarity | None) -> Polarity | None:
    return None if pol is None else pol.flip()


def _dual_rule(r: Rule) -> Rule:
    def premise(p: Premise) -> Premise:
        binds = p.binds and (p.binds[0].flip(), dual_formula(p.binds[1]))
        return Premise(_flip(p.pol), dual_formula(p.type), binds)

    prems = dual_premises(r.ctor, tuple(map(premise, r.prems)))
    ctor = _DUAL_CTOR.get(r.ctor, r.ctor)
    return Rule(r.dual, r.name, ctor, _flip(r.pol), dual_formula(r.concl), prems)


RULE_TABLE: dict[str, Rule] = {r.name: r for p in _PRIMAL for r in (p, _dual_rule(p))}
RULES = tuple(RULE_TABLE)

# Each constructor's rules: the one selected by +, then the one by -.
_BY_CTOR: dict[type, list[Rule | None]] = {}
for _r in RULE_TABLE.values():
    _selector = _r.prems[0].pol if _r.ctor in _BY_PREMISE else _r.pol
    _BY_CTOR.setdefault(_r.ctor, [None, None])[_selector is MINUS] = _r


def rule_of(t: Term) -> Rule:
    """The one rule whose conclusion can have subject t."""
    c = type(t)
    return _BY_CTOR[c][(children(t)[0].pol if c in _BY_PREMISE else t.pol) is MINUS]


def match_pattern(pattern: Formula, f: Formula, env: dict[str, Formula]) -> bool:
    """Whether f is an instance of pattern under env, binding in env the
    pattern variables env leaves open.  Both sides of a connective are
    matched, so a mismatch on one side still binds the variables of the
    other."""
    if isinstance(pattern, MetaVar):
        held = env.setdefault(pattern.name, f)
        return held is f or held == f
    if type(f) is not type(pattern):
        return False
    if isinstance(pattern, (Verum, Falsum)):
        return True
    left = match_pattern(pattern.left, f.left, env)
    return match_pattern(pattern.right, f.right, env) and left


def instantiate(pattern: Formula, env: dict[str, Formula], fresh=None) -> Formula:
    """pattern under env; fresh() makes each variable env leaves open,
    left to right.  A leaf that is not a variable is returned as it is."""
    if isinstance(pattern, MetaVar):
        got = env.get(pattern.name)
        if got is None:
            got = env[pattern.name] = fresh()
        return got
    if not isinstance(pattern, Connective):
        return pattern
    left = instantiate(pattern.left, env, fresh)
    return type(pattern)(left, instantiate(pattern.right, env, fresh))


# -------------------------------------------------- polarity well-formedness


@dataclass(frozen=True)
class PolarityViolation:
    path: tuple[int, ...]
    message: str


# Per constructor, its noun, then each child's (a case's scrutinee needs none).
_NOUNS = {
    Pair: ("pair", "pair component 1", "pair component 2"),
    **dict.fromkeys((Fst, Snd), ("projection", "projection body")),
    **dict.fromkeys((Inl, Inr), ("injection", "injection body")),
    Case: ("case", None, "branch 1", "branch 2"),
    Lam: ("lambda", "lambda body"),
    App: ("application", "applied term", "argument"),
    MPair: ("mixed pair", "mixed pair component 1", "mixed pair component 2"),
}


def _polarity_tests(ctor: type) -> tuple:
    """Read off ctor's rows: per child whose polarity does not select the
    row, its index, the polarity every row gives it (None where that is
    the term's own), its noun and ctor's."""
    rows = [r for r in _BY_CTOR[ctor] if r is not None]
    pols = [{r.prems[i].pol for r in rows} for i in range(len(rows[0].prems))]
    return tuple(
        (i, p.pop() if len(p) == 1 else None, _NOUNS[ctor][i + 1], _NOUNS[ctor][0])
        for i, p in enumerate(pols)
        if i or ctor not in _BY_PREMISE
    )


_POLARITY_TESTS = {ctor: _polarity_tests(ctor) for ctor in _BY_CTOR}


def check_polarities(t: Term) -> list[PolarityViolation]:
    """All structural polarity violations in t, in preorder; empty means
    well formed: `rule_of` gives each node a row its children's
    polarities fit.  It keeps the children of each node above the one it
    visits on a list, not in a frame per level, and the path to that node
    as one list, made a tuple only for a violation."""
    out: list[PolarityViolation] = []
    path: list[int] = []
    pending: list[tuple[Term, ...]] = []  # the children of each node above t
    while True:
        kids = children(t)
        for i, fixed, noun, of in _POLARITY_TESTS[type(t)]:
            pol = kids[i].pol
            if pol is not (fixed or t.pol):
                msg = f"{noun} must be {fixed}" if fixed else f"{noun} is {pol}, {of} is {t.pol}"
                out.append(PolarityViolation(tuple(path), msg))
        pending.append(kids)
        path.append(0)
        while path[-1] == len(pending[-1]):  # no child left here: up to the next sibling
            pending.pop()
            path.pop()
            if not path:
                return out
            path[-1] += 1
        t = pending[-1][path[-1]]


# --------------------------------------------------------------- validation


@dataclass(frozen=True)
class RuleViolation:
    path: tuple[int, ...]
    message: str


def validate(d: Derivation) -> list[RuleViolation]:
    """All schema violations in d; empty means the derivation is valid."""
    out: list[RuleViolation] = []
    for v in check_polarities(d.concl.term):
        out.append(RuleViolation((), f"end term ill-polarized: {v.message}"))
    _validate(d, [], out)
    return out


def _validate(d: Derivation, path: list[int], out: list[RuleViolation]) -> None:
    """Checks d's node, at path, against its row.  It does not descend when
    the node does not fit the row's shape, or when a premise's formula
    leaves a variable open that a later premise needs.  The path is one
    list for the walk, made a tuple only for a violation."""
    bad = lambda msg: out.append(RuleViolation(tuple(path), msg))
    j, t = d.concl, d.concl.term
    rule = RULE_TABLE.get(d.rule)
    if rule is None:
        bad(f"unknown rule {d.rule!r}")
        return
    if j.pol is not t.pol:
        bad(f"conclusion polarity {j.pol} does not match its term")
    if len(d.prems) != len(rule.prems):
        bad(f"{d.rule} takes {len(rule.prems)} premises, found {len(d.prems)}")
        return
    if rule_of(t) is not rule:
        bad(f"{d.rule} cannot conclude a {type(t).__name__} term with these polarities")
        return
    env: dict[str, Formula] = {}
    if not match_pattern(rule.concl, j.type, env):
        bad(f"{d.rule} cannot conclude this formula")
        return
    if isinstance(t, Var) and j.basis.lookup(t.name, rule.pol) != j.type:
        bad(f"{t.name}{rule.pol} is not assumed at {_show(j.type)} in the basis")
    kids, bound = children(t), binders(t)
    for i, (p, prem) in enumerate(zip(rule.prems, d.prems)):
        pj = prem.concl
        want = j.pol if p.pol is None else p.pol
        if pj.pol is not want:
            bad(f"premise {i} must be {want}, is {pj.pol}")
        if pj.term != kids[i]:
            bad(f"premise {i} subject must be the matching subterm of the conclusion")
        matched = match_pattern(p.type, pj.type, env)
        if not matched:
            bad(f"premise {i} must conclude the matching formula")
        discharged = bound[i] and (*bound[i], instantiate(p.binds[1], env))
        _check_basis(i, pj.basis, j.basis, discharged, bad)
        if not matched and any(not q.variables <= env.keys() for q in rule.prems[i + 1:]):
            return
    for i, p in enumerate(d.prems):
        path.append(i)
        _validate(p, path, out)
        path.pop()


def _show(f: Formula) -> str:
    from .textio import print_formula  # textio imports this module

    return print_formula(f)


def _check_basis(i: int, pb: Basis, cb: Basis, discharged, bad) -> None:
    """Compares pb's and cb's (name, formula) entries in place, a formula
    shared with the conclusion by identity."""
    if discharged is None and pb == cb:
        return
    allowed = None
    if discharged is not None:
        name, pol, formula = discharged
        held = cb.lookup(name, pol)
        if held is not None and held != formula:
            bad(f"premise {i} discharges {name}{pol} already assumed at another formula")
            return
        if pb == cb.extend(name, pol, formula):  # the common case, in time linear in the basis
            return
        allowed = pol, (name, formula)
    extra = []  # each entry once, however many sides hold it
    for pol in (PLUS, MINUS):
        side = cb.side(pol)
        for e in pb.side(pol):
            if e not in side and e not in extra and (pol, e) != allowed:
                extra.append(e)
    if extra:
        names = ", ".join(sorted(n for n, _ in extra))
        bad(f"premise {i} assumes more than the conclusion allows: {names}")
    if any(e not in pb.side(pol) for pol in (PLUS, MINUS) for e in cb.side(pol)):
        bad(f"premise {i} drops assumptions from the conclusion's basis")
