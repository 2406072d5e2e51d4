"""Random well-typed inputs and a brute-force reduction oracle.

gen_derivation grows a derivation top down: starting from a metavariable
goal it repeatedly picks an applicable rule (weighted, seeded), refining
the goal by unification, until the height budget forces assumption
leaves.  Leftover metavariables are pinned to random atoms and the term
is run back through check(), so the result is always a valid derivation
of height at most max_height.  Variable names are globally unique, so
generated terms never shadow and never capture.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field

from .derivation import RULE_TABLE, RULES, Derivation, Rule, instantiate
from .rewrite import find_redexes, step
from .syntax import (
    PLUS,
    MINUS,
    And,
    Atom,
    Basis,
    CoImp,
    Falsum,
    Formula,
    Imp,
    MetaVar,
    Or,
    Polarity,
    Term,
    Var,
    Verum,
    alpha_key,
    build,
)
from .typecheck import Substitution, UnifyError, _unify, check


class GenerationFailed(Exception):
    pass


class _Retry(Exception):
    pass


@dataclass
class GenConfig:
    seed: int = 0
    max_height: int = 6
    atom_pool: tuple[str, ...] = ("a", "b", "c")
    rule_weights: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        for name, weight in self.rule_weights.items():
            if name not in RULES:
                raise ValueError(f"rule_weights names no rule {name!r}")
            if not (math.isfinite(weight) and weight >= 0):
                raise ValueError(f"the weight of {name} must be finite and not negative")
        if not self.atom_pool:
            raise ValueError("atom_pool must not be empty")
        if self.max_height < 0:
            raise ValueError("max_height must be at least 0")


# In the order in which go() offers the rules that fit a goal; a seed's
# derivation depends on it.
DEFAULT_WEIGHTS = {
    "Hyp+": 3.0, "Hyp-": 3.0, "BotE": 0.25, "TopE_d": 0.25,
    "AndE1": 0.7, "AndE2": 0.7, "ImpE": 0.9, "ImpE_d1": 0.6, "CoImpE1": 0.6,
    "OrE_d1": 0.7, "OrE_d2": 0.7, "CoImpE_d": 0.9, "ImpE_d2": 0.6, "CoImpE2": 0.6,
    "OrE": 0.7, "AndE_d": 0.7,
    "TopI": 0.4, "AndI": 1.0, "OrI1": 0.8, "OrI2": 0.8, "ImpI": 1.2, "CoImpI": 1.0,
    "BotI_d": 0.4, "OrI_d": 1.0, "AndI_d1": 0.8, "AndI_d2": 0.8, "ImpI_d": 1.0, "CoImpI_d": 1.2,
}
_OFFERS = {
    pol: tuple(RULE_TABLE[n] for n in DEFAULT_WEIGHTS if RULE_TABLE[n].pol in (pol, None))
    for pol in (PLUS, MINUS)
}

_MAX_NODES = 4000
_ATTEMPTS = 8


class _Gen:
    def __init__(self, cfg: GenConfig, rng: random.Random):
        self.cfg = cfg
        self.rng = rng
        self.subst = Substitution()
        self.free: dict[tuple[str, Polarity], Formula] = {}
        self.names = itertools.count()
        self.metas: list[str] = []
        self.nodes = 0
        self.weights = {**DEFAULT_WEIGHTS, **cfg.rule_weights}

    def fresh_meta(self) -> MetaVar:
        name = f"g{len(self.metas)}"
        self.metas.append(name)
        return MetaVar(name)

    def fresh_name(self) -> str:
        return f"x{next(self.names)}"

    def unify(self, a: Formula, b: Formula) -> None:
        _unify(a, b, self.subst)

    def hyp(self, goal: Formula, pol: Polarity, scope: dict) -> Term:
        candidates = [
            (n, f)
            for (n, p), f in itertools.chain(scope.items(), self.free.items())
            if p is pol
        ]
        self.rng.shuffle(candidates)
        if self.rng.random() < 0.7:
            for name, ty in candidates[:4]:
                snapshot = dict(self.subst.mapping)
                try:
                    self.unify(ty, goal)
                    return Var(name, pol)
                except UnifyError:
                    self.subst.mapping = snapshot
        name = self.fresh_name()
        self.free[(name, pol)] = goal
        return Var(name, pol)

    def go(self, goal: Formula, pol: Polarity, budget: int, scope: dict) -> Term:
        self.nodes += 1
        if self.nodes > _MAX_NODES:
            raise _Retry
        if budget <= 0:
            return self.hyp(goal, pol, scope)
        g = self.subst.walk(goal)
        weighted = [
            (r, self.weights[r.name])
            for r in _OFFERS[pol]
            if isinstance(r.concl, MetaVar) or isinstance(g, (MetaVar, type(r.concl)))
        ]
        weighted = [(r, w) for r, w in weighted if w > 0]
        if not weighted:
            return self.hyp(goal, pol, scope)
        total = sum(w for _, w in weighted)
        pick = self.rng.random() * total
        rule = weighted[-1][0]
        for r, w in weighted:
            pick -= w
            if pick <= 0:
                rule = r
                break
        return self.apply_rule(rule, goal, pol, budget, scope)

    def apply_rule(self, rule: Rule, goal, pol, budget: int, scope: dict) -> Term:
        """A term of rule for goal: a conclusion that is a pattern variable
        stands for the goal, any other is unified with it, and each
        premise's instance becomes a subgoal.  Fresh metavariables go to the
        pattern variables left to right, and the binders get fresh names
        when the first premise that discharges one is reached."""
        if rule.ctor is Var:
            return self.hyp(goal, pol, scope)
        env: dict[str, Formula] = {}
        if isinstance(rule.concl, MetaVar):
            env[rule.concl.name] = goal
        else:
            self.unify(goal, instantiate(rule.concl, env, self.fresh_meta))
        names, parts = None, []
        for p in rule.prems:
            inner = scope
            if p.binds is not None:
                if names is None:
                    names = iter([self.fresh_name() for q in rule.prems if q.binds])
                x, (q, formula) = next(names), p.binds
                inner = {**scope, (x, q): instantiate(formula, env)}
                parts.append(x)
            subgoal = instantiate(p.type, env, self.fresh_meta)
            parts.append(self.go(subgoal, pol if p.pol is None else p.pol, budget - 1, inner))
        return build(rule.ctor, parts, pol)

    def ground(self) -> None:
        for name in self.metas:
            if isinstance(self.subst.walk(MetaVar(name)), MetaVar):
                root = self.subst.walk(MetaVar(name))
                self.subst.mapping[root.name] = Atom(self.rng.choice(self.cfg.atom_pool))


def gen_derivation(cfg: GenConfig) -> Derivation:
    """A valid derivation of height at most cfg.max_height, seeded by cfg."""
    return _generate(cfg, None, None)


def gen_derivation_of(cfg: GenConfig, goal: Formula, pol: Polarity) -> Derivation:
    """Like gen_derivation, but concluding the given closed formula (no metavariable) and polarity."""
    return _generate(cfg, goal, pol)


def _generate(cfg: GenConfig, goal: Formula | None, pol: Polarity | None) -> Derivation:
    """Up to _ATTEMPTS tries of _attempt, all drawing on one rng."""
    rng = random.Random(cfg.seed)
    for _ in range(_ATTEMPTS):
        try:
            return _attempt(cfg, rng, goal, pol)
        except _Retry:
            continue
    raise GenerationFailed("generated terms kept exceeding the size budget")


def _attempt(
    cfg: GenConfig, rng: random.Random, goal: Formula | None, pol: Polarity | None
) -> Derivation:
    g = _Gen(cfg, rng)
    if pol is None:
        pol = rng.choice((PLUS, MINUS))
    if goal is None:
        goal = g.fresh_meta()
    budget = rng.randint(0, cfg.max_height)
    term = g.go(goal, pol, budget, {})
    g.ground()
    gamma = {n: g.subst.apply(f) for (n, p), f in g.free.items() if p is PLUS}
    delta = {n: g.subst.apply(f) for (n, p), f in g.free.items() if p is MINUS}
    basis = Basis.make(gamma, delta)
    try:
        return check(basis, pol, term, g.subst.apply(goal))
    except Exception as e:  # a bug, not bad luck; do not retry silently
        raise GenerationFailed(f"generated term failed to check: {e}") from e


def gen_formula(rng: random.Random, max_depth: int = 4, atom_pool=("a", "b", "c")) -> Formula:
    if max_depth <= 0 or rng.random() < 0.35:
        if rng.random() < 0.75:
            return Atom(rng.choice(atom_pool))
        return rng.choice((Verum(), Falsum()))
    ctor = rng.choice((And, Or, Imp, CoImp))
    return ctor(
        gen_formula(rng, max_depth - 1, atom_pool),
        gen_formula(rng, max_depth - 1, atom_pool),
    )


def gen_basis(rng: random.Random, size: int = 4, atom_pool=("a", "b", "c")) -> Basis:
    gamma = {f"x{i}": gen_formula(rng, 3, atom_pool) for i in range(rng.randint(0, size))}
    delta = {f"y{i}": gen_formula(rng, 3, atom_pool) for i in range(rng.randint(0, size))}
    return Basis.make(gamma, delta)


@dataclass
class OracleResult:
    reachable: list[Term]
    normal_forms: list[Term]
    complete: bool


def oracle_reduce_all(t: Term, max_depth: int = 64) -> OracleResult:
    """Breadth-first closure of t under single steps in any position.

    complete=False means the depth ran out with work left, so the listing
    may be missing terms.
    """
    seen = {alpha_key(t): t}
    frontier = [t]
    normal_forms: list[Term] = []
    complete = True
    depth = 0
    while frontier:
        if depth >= max_depth:
            complete = False
            break
        nxt: list[Term] = []
        for u in frontier:
            redexes = find_redexes(u)
            if not redexes:
                normal_forms.append(u)
                continue
            for r in redexes:
                v = step(u, r)
                k = alpha_key(v)
                if k not in seen:
                    seen[k] = v
                    nxt.append(v)
        frontier = nxt
        depth += 1
    return OracleResult(list(seen.values()), normal_forms, complete)
