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

`_facts` is the one scanner.  It computes a node's free variables and
first redexes of each kind from its children's, and keeps them in a memo
keyed by node object that lives for one call.  So within one `normalize`
a step costs the nodes it built, the rebuilt spine and the new parts of
the contractum, as after a local edit under Huet's zipper: a subtree the
step did not touch keeps its facts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .syntax import (
    MINUS,
    PLUS,
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
    Var,
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

# The (kind, detail) of the beta or perm redex at a node, by the node's
# constructor, its head's and its polarity.  Only a case's details say
# more: beta-CaseInl, perm-Case+.
_REDEX = {}
for _elim, _intros in _INTROS.items():
    _name = _elim.__name__
    for _pol, _sign in (PLUS, "+"), (MINUS, "-"):
        for _intro in _intros:
            _REDEX[_elim, _intro, _pol] = "beta", f"beta-{_name}{_intro.__name__ if _elim is Case else ''}"
        _REDEX[_elim, Case, _pol] = "perm", f"perm-{_name}{_sign if _elim is Case else ''}"

# A case's simp redex by the index of the branch it keeps, and back.
_SIMP = (None, ("simp", "simp-left"), ("simp", "simp-right"))
_BRANCH = {"simp-left": 1, "simp-right": 2}
_NO_VARS = frozenset()
_LEAF = (_NO_VARS, None)


def _facts(t: Term, memo: dict) -> tuple:
    """t's facts: its free variables, and None if no redex lies at or
    below it, else (beta, perm, simp, here).  Per kind, that is None where
    no redex of the kind lies there, its detail where the first in
    preorder is at t, else the index of the child holding it; here is the
    (kind, detail) of each redex at t.  memo maps the id of each inner
    node scanned so far to its facts, and gets t's and its descendants':
    the nodes must outlive it."""
    cls = type(t)
    if cls is Var:
        return frozenset(((t.name, t.pol),)), None
    f = memo.get(id(t))
    if f is not None:
        return f
    kids = children(t)
    if not kids:
        return _LEAF
    fv = _NO_VARS
    beta = perm = simp = None
    unused = ()  # per child that does not use the variable bound over it, its simp
    bound = binders(t) if cls is Lam or cls is Case else None  # the binding constructors
    for i, c in enumerate(kids):
        cfv, below = _facts(c, memo)
        if bound is not None and (b := bound[i]) is not None:
            if b in cfv:
                cfv = cfv - {b}
            else:
                unused += (_SIMP[i],)
        fv = fv | cfv if fv else cfv
        if below is not None:
            if beta is None and below[0] is not None:
                beta = i
            if perm is None and below[1] is not None:
                perm = i
            if simp is None and below[2] is not None:
                simp = i
    here = ()
    hit = _REDEX.get((cls, type(kids[0]), t.pol))
    if hit is not None:
        here = (hit,)
        if hit[0] == "beta":
            beta = hit[1]
        else:
            perm = hit[1]
    if unused and cls is Case:
        here += unused
        simp = unused[0][1]
    f = fv, None if beta is None and perm is None and simp is None else (beta, perm, simp, here)
    memo[id(t)] = f
    return f


def _emit(t: Term, below: tuple, path: tuple[int, ...], memo: dict, out: list[RedexPosition]) -> None:
    """Append each redex at or below t, whose path is path, in preorder;
    below is t's facts' second part, and memo holds its descendants'."""
    for kind, detail in below[3]:
        out.append(RedexPosition(path, kind, detail))
    for i, c in enumerate(children(t)):
        f = memo.get(id(c))
        if f is not None and f[1] is not None:
            _emit(c, f[1], path + (i,), memo, out)


def find_redexes(t: Term) -> list[RedexPosition]:
    """Every redex position, outermost first, left to right: one scan for
    the facts of every node (see `_facts`), then a walk down to each
    redex.  The facts are dropped on return."""
    memo: dict = {}
    out: list[RedexPosition] = []
    below = _facts(t, memo)[1]
    if below is not None:
        _emit(t, below, (), memo, out)
    return out


def is_normal(t: Term) -> bool:
    return _facts(t, {})[1] is None


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


def _step(t: Term, pos: RedexPosition, memo: dict) -> Term:
    """`step`, reading the facts of the redex's branches from memo (see
    `_facts`) for a simp."""
    sub = subterm_at(t, pos.path)
    kids = children(sub)
    if pos.kind == "simp":
        i = _BRANCH.get(pos.detail)
        ok = i and isinstance(sub, Case) and binders(sub)[i] not in _facts(kids[i], memo)[0]
    else:
        ok = bool(kids) and _REDEX.get((type(sub), type(kids[0]), sub.pol)) == (pos.kind, pos.detail)
    if not ok:
        raise NotARedex(f"no {pos.detail} redex at {pos.path}")
    if pos.kind == "beta":
        new = _beta(sub)
    elif pos.kind == "perm":
        new = _perm(sub)
    else:
        new = kids[i]
    return replace_at(t, pos.path, new)


def step(t: Term, pos: RedexPosition) -> Term:
    """Contract the redex at pos; the rest of t is untouched.  A simp
    scans the branch it tests; no facts outlive the call."""
    return _step(t, pos, {})


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
    """Contract the canonical redex until none is left or fuel steps are
    taken.  One memo of facts (see `_facts`) serves the whole call: the
    first scan fills it, each step adds the facts of the nodes it built
    and reads the rest, and the redex picked is found by following the
    facts from the root.  Every node in it belongs to the input or to a
    term of the trace, so none dies while the memo lives; it is dropped
    on return."""
    memo: dict = {}
    steps: list[TraceStep] = []
    u = t  # t, the input, stays referenced here while the memo holds its nodes
    while (first := _facts(u, memo)[1]) is not None:
        if len(steps) >= fuel:
            return NormalizeResult(u, steps, exhausted=True)
        k = 0 if first[0] is not None else 1 if first[1] is not None else 2
        v, path = u, []
        while type(first[k]) is int:
            path.append(first[k])
            v = children(v)[first[k]]
            first = memo[id(v)][1]
        pos = RedexPosition(tuple(path), KINDS[k], first[k])
        u = _step(u, pos, memo)
        steps.append(TraceStep(pos, u))
    return NormalizeResult(u, steps)
