"""Reduction to normal form.

Three redex families: beta (a constructor meets its matching destructor),
perm (a destructor applied to a case is pushed into both branches), and
simp (a case collapses to a branch that does not use the variable it
binds, preferring the left one; what the branch does with the other
branch's variable does not matter, as in Prawitz's immediate
simplification).  A term is normal when no family applies anywhere.
`_INTROS` is the one table of beta and perm redexes: each elimination
with the introductions its head meets.

normalize() contracts one redex at a time, betas anywhere before perms
anywhere before simps, leftmost-outermost within a family.  Fuel bounds
the step count; running out is an explicit outcome that keeps the trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .syntax import (
    App,
    Case,
    Fst,
    Inl,
    Inr,
    Lam,
    MPair,
    Pair,
    Pi1,
    Pi2,
    Snd,
    Term,
    binders,
    children,
    free_vars,
    rename_bound,
    replace_at,
    substitute,
    subterm_at,
    with_children,
)

KINDS = ("beta", "perm", "simp")


@dataclass(frozen=True)
class RedexPosition:
    path: tuple[int, ...]
    kind: str
    detail: str


class NotARedex(Exception):
    pass


class FuelExhausted(Exception):
    """Raised by callers that need a normal form; carries the partial work."""

    def __init__(self, term: Term, steps: list["TraceStep"]):
        super().__init__(f"no normal form within {len(steps)} steps")
        self.term = term
        self.steps = steps


# Each elimination with the introductions its head, its first child, meets
# in a beta redex.  A case as the head instead makes a perm redex.
_INTROS = {
    App: (Lam,), Fst: (Pair,), Snd: (Pair,), Pi1: (MPair,), Pi2: (MPair,), Case: (Inl, Inr),
}


def _redexes_here(t: Term) -> list[tuple[str, str]]:
    out: list[tuple[str, str]] = []
    intros = _INTROS.get(type(t))
    if intros is None:
        return out
    kids, name = children(t), type(t).__name__
    # Only a case's details say more: beta-CaseInl, perm-Case+.
    if isinstance(kids[0], intros):
        tag = type(kids[0]).__name__ if isinstance(t, Case) else ""
        out.append(("beta", f"beta-{name}{tag}"))
    elif isinstance(kids[0], Case):
        tag = t.pol.value if isinstance(t, Case) else ""
        out.append(("perm", f"perm-{name}{tag}"))
    if isinstance(t, Case):
        _, x, y = binders(t)
        if x not in free_vars(kids[1]):
            out.append(("simp", "simp-left"))
        if y not in free_vars(kids[2]):
            out.append(("simp", "simp-right"))
    return out


def find_redexes(t: Term) -> list[RedexPosition]:
    """Every redex position, outermost first, left to right."""
    out: list[RedexPosition] = []

    def go(t: Term, path: tuple[int, ...]) -> None:
        for kind, detail in _redexes_here(t):
            out.append(RedexPosition(path, kind, detail))
        for i, c in enumerate(children(t)):
            go(c, path + (i,))

    go(t, ())
    return out


def is_normal(t: Term) -> bool:
    return not find_redexes(t)


def _beta(t: Term) -> Term:
    """The contractum of the beta redex t: the component of its head that
    a projection keeps, or the bound child with the introduced term
    substituted for its variable."""
    head = children(t)[0]
    if isinstance(t, App):
        return substitute(head.body, *binders(head)[0], t.arg)
    if isinstance(t, Case):
        i = 1 if isinstance(head, Inl) else 2
        return substitute(children(t)[i], *binders(t)[i], head.body)
    return children(head)[0 if isinstance(t, (Fst, Pi1)) else 1]


def _perm(t: Term) -> Term:
    """t moved into both branches of its head case, each branch binder
    renamed away from the free variables of t's other children."""
    c, *rest = children(t)
    incoming = set().union(*map(free_vars, rest))
    taken = {n for n, _ in incoming}
    parts = []
    for body, b in zip(children(c)[1:], binders(c)[1:]):
        x = b[0]
        if b in incoming:
            x, body = rename_bound(b, body, taken)
        parts += x, with_children(t, (body, *rest))
    return Case(c.scrutinee, *parts, t.pol)


def step(t: Term, pos: RedexPosition) -> Term:
    """Contract the redex at pos; the rest of t is untouched."""
    sub = subterm_at(t, pos.path)
    if (pos.kind, pos.detail) not in _redexes_here(sub):
        raise NotARedex(f"no {pos.detail} redex at {pos.path}")
    if pos.kind == "beta":
        new = _beta(sub)
    elif pos.kind == "perm":
        new = _perm(sub)
    else:
        new = children(sub)[1 if pos.detail == "simp-left" else 2]
    return replace_at(t, pos.path, new)


@dataclass(frozen=True)
class TraceStep:
    position: RedexPosition
    after: Term


@dataclass
class NormalizeResult:
    term: Term
    steps: list[TraceStep] = field(default_factory=list)
    exhausted: bool = False


DEFAULT_FUEL = 10_000


def normalize(t: Term, fuel: int = DEFAULT_FUEL) -> NormalizeResult:
    steps: list[TraceStep] = []
    while rs := find_redexes(t):
        if len(steps) >= fuel:
            return NormalizeResult(t, steps, exhausted=True)
        pos = min(rs, key=lambda r: KINDS.index(r.kind))
        t = step(t, pos)
        steps.append(TraceStep(pos, t))
    return NormalizeResult(t, steps)
