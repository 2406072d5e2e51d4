"""Core syntax: formulas, polarized terms, bases.

Terms come in two sorts distinguished by a polarity: plus terms stand for
proofs, minus terms for refutations.  A variable is identified by its name
*and* its polarity, so x+ and x- are unrelated.  Binders (lambda and the
case branches) bind one polarity only.  `binders` is the one statement of
which variable each child is scoped under; `free_vars`, `substitute`,
`alpha_key` and the other traversals that track scope read it, and
`rename_bound` is the one capture-avoiding renaming of a binder.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass, fields
from itertools import repeat


class Polarity(enum.Enum):
    PLUS = "+"
    MINUS = "-"

    def flip(self) -> "Polarity":
        return MINUS if self is PLUS else PLUS

    def __str__(self) -> str:
        return self.value


PLUS = Polarity.PLUS
MINUS = Polarity.MINUS


# ---------------------------------------------------------------- formulas


class Formula:
    """A formula computes its hash once and keeps it (see `_formula`).
    Pickling and copying rebuild a formula from its fields, so the kept
    hash, which depends on the process's string hash salt, never leaves
    the process."""

    __slots__ = ()

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


def _formula(cls):
    """`cls` as a frozen dataclass that computes its generated hash, the
    hash of the tuple of its fields, once per object: formulas are hashed
    over and over as set members and dict keys, and the generated hash
    recurses through the whole formula.  The tuple is built without a
    Python-level call, so a first hash nests no deeper than the generated
    one did."""
    cls = dataclass(frozen=True)(cls)
    names = [f.name for f in fields(cls)]

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash(tuple(map(getattr, repeat(self), names)))
            object.__setattr__(self, "_hash", h)
            return h

    cls.__hash__ = __hash__
    return cls


@_formula
class Atom(Formula):
    name: str


@_formula
class Falsum(Formula):
    pass


@_formula
class Verum(Formula):
    pass


@_formula
class And(Formula):
    left: Formula
    right: Formula


@_formula
class Or(Formula):
    left: Formula
    right: Formula


@_formula
class Imp(Formula):
    left: Formula
    right: Formula


@_formula
class CoImp(Formula):
    """b -< a: something that proves b while refuting a."""

    left: Formula
    right: Formula


@_formula
class MetaVar(Formula):
    """Placeholder used by type inference; never produced by the parser."""

    name: str


def atoms_of(f: Formula) -> set[str]:
    match f:
        case Atom(name):
            return {name}
        case And(a, b) | Or(a, b) | Imp(a, b) | CoImp(a, b):
            return atoms_of(a) | atoms_of(b)
        case _:
            return set()


def metavars_of(f: Formula) -> set[str]:
    match f:
        case MetaVar(name):
            return {name}
        case And(a, b) | Or(a, b) | Imp(a, b) | CoImp(a, b):
            return metavars_of(a) | metavars_of(b)
        case _:
            return set()


def is_ground(f: Formula) -> bool:
    return not metavars_of(f)


def dual_formula(f: Formula) -> Formula:
    """The dual formula: top and bot swap, conjunction and disjunction swap,
    and the two arrows swap with their sides reversed."""
    match f:
        case Atom() | MetaVar():
            return f
        case Verum():
            return Falsum()
        case Falsum():
            return Verum()
        case And(a, b):
            return Or(dual_formula(a), dual_formula(b))
        case Or(a, b):
            return And(dual_formula(a), dual_formula(b))
        case Imp(a, b):
            return CoImp(dual_formula(b), dual_formula(a))
        case CoImp(a, b):
            return Imp(dual_formula(b), dual_formula(a))
    raise TypeError(f"not a formula: {f!r}")


# ------------------------------------------------------------------- terms


class Term:
    __slots__ = ()


@dataclass(frozen=True)
class Var(Term):
    name: str
    pol: Polarity


@dataclass(frozen=True)
class Top(Term):
    """The canonical proof of verum; always positive."""

    @property
    def pol(self) -> Polarity:
        return PLUS


@dataclass(frozen=True)
class Bot(Term):
    """The canonical refutation of falsum; always negative."""

    @property
    def pol(self) -> Polarity:
        return MINUS


@dataclass(frozen=True)
class Abort(Term):
    """Anything follows from a proof of falsum or a refutation of verum."""

    body: Term
    pol: Polarity


@dataclass(frozen=True)
class Pair(Term):
    """Plus: proof of a conjunction.  Minus: refutation of a disjunction."""

    left: Term
    right: Term
    pol: Polarity


@dataclass(frozen=True)
class Fst(Term):
    body: Term
    pol: Polarity


@dataclass(frozen=True)
class Snd(Term):
    body: Term
    pol: Polarity


@dataclass(frozen=True)
class Inl(Term):
    body: Term
    pol: Polarity


@dataclass(frozen=True)
class Inr(Term):
    body: Term
    pol: Polarity


@dataclass(frozen=True)
class Case(Term):
    """Branch on a pair-like hypothesis.

    The binders share the scrutinee's polarity; the branches share the
    polarity of the whole term.  binder1 scopes branch1 only, binder2
    scopes branch2 only.
    """

    scrutinee: Term
    binder1: str
    branch1: Term
    binder2: str
    branch2: Term
    pol: Polarity


@dataclass(frozen=True)
class Lam(Term):
    """Plus: proof of an implication.  Minus: refutation of a co-implication.

    The binder has the polarity of the whole term.
    """

    binder: str
    body: Term
    pol: Polarity


@dataclass(frozen=True)
class App(Term):
    fun: Term
    arg: Term
    pol: Polarity


@dataclass(frozen=True)
class MPair(Term):
    """Mixed pair: a plus component and a minus component.

    Plus: proof of a co-implication.  Minus: refutation of an implication.
    """

    pos: Term
    neg: Term
    pol: Polarity


@dataclass(frozen=True)
class Pi1(Term):
    """First projection of a mixed pair; always positive."""

    body: Term

    @property
    def pol(self) -> Polarity:
        return PLUS


@dataclass(frozen=True)
class Pi2(Term):
    """Second projection of a mixed pair; always negative."""

    body: Term

    @property
    def pol(self) -> Polarity:
        return MINUS


def children(t: Term) -> tuple[Term, ...]:
    """Immediate subterms, left to right.  Binder names are not children."""
    match t:
        case Var() | Top() | Bot():
            return ()
        case Abort(body) | Fst(body) | Snd(body) | Inl(body) | Inr(body):
            return (body,)
        case Pi1(body) | Pi2(body):
            return (body,)
        case Pair(left, right):
            return (left, right)
        case App(fun, arg):
            return (fun, arg)
        case MPair(pos, neg):
            return (pos, neg)
        case Lam(_, body):
            return (body,)
        case Case(scrutinee, _, branch1, _, branch2):
            return (scrutinee, branch1, branch2)
    raise TypeError(f"not a term: {t!r}")


def binders(t: Term) -> tuple[tuple[str, Polarity] | None, ...]:
    """For each child of t, the variable (name, polarity) bound over it,
    or None.  This is the one statement of scoping: a lambda binds at its
    own polarity, a case binds each branch's variable at its scrutinee's
    polarity, and no other constructor binds."""
    cls = type(t)
    if cls is Lam:
        return ((t.binder, t.pol),)
    if cls is Case:
        q = t.scrutinee.pol
        return (None, (t.binder1, q), (t.binder2, q))
    got = _UNBOUND.get(cls)
    if got is None:
        got = _UNBOUND[cls] = (None,) * len(children(t))
    return got


_UNBOUND: dict[type, tuple[None, ...]] = {}  # per constructor, a None per child


def with_children(t: Term, new: Sequence[Term], names: Sequence[str | None] | None = None) -> Term:
    """t with the children new and, where names is given, the binder
    names names[i] over the binding children i (see `binders`)."""
    match t:
        case Var() | Top() | Bot():
            return t
        case Abort(_, pol):
            return Abort(new[0], pol)
        case Fst(_, pol):
            return Fst(new[0], pol)
        case Snd(_, pol):
            return Snd(new[0], pol)
        case Inl(_, pol):
            return Inl(new[0], pol)
        case Inr(_, pol):
            return Inr(new[0], pol)
        case Pi1():
            return Pi1(new[0])
        case Pi2():
            return Pi2(new[0])
        case Pair(_, _, pol):
            return Pair(new[0], new[1], pol)
        case App(_, _, pol):
            return App(new[0], new[1], pol)
        case MPair(_, _, pol):
            return MPair(new[0], new[1], pol)
        case Lam(x, _, pol):
            return Lam(names[0] if names else x, new[0], pol)
        case Case(_, x, _, y, _, pol):
            if names:
                x, y = names[1], names[2]
            return Case(new[0], x, new[1], y, new[2], pol)
    raise TypeError(f"not a term: {t!r}")


def subterm_at(t: Term, path: tuple[int, ...]) -> Term:
    for i in path:
        t = children(t)[i]
    return t


def replace_at(t: Term, path: tuple[int, ...], new: Term) -> Term:
    if not path:
        return new
    kids = list(children(t))
    kids[path[0]] = replace_at(kids[path[0]], path[1:], new)
    return with_children(t, tuple(kids))


def term_size(t: Term) -> int:
    return 1 + sum(term_size(c) for c in children(t))


def free_vars(t: Term) -> set[tuple[str, Polarity]]:
    if isinstance(t, Var):
        return {(t.name, t.pol)}
    out: set[tuple[str, Polarity]] = set()
    for c, b in zip(children(t), binders(t)):
        fv = free_vars(c)
        if b is not None:
            fv.discard(b)
        out |= fv
    return out


class PolarityMismatch(Exception):
    """Substituting a term of one polarity for a variable of the other."""


def fresh_name(base: str, taken: set[str]) -> str:
    """base with the smallest numeric suffix that avoids taken."""
    if base not in taken:
        return base
    i = 1
    while f"{base}{i}" in taken:
        i += 1
    return f"{base}{i}"


def _names(vs: set[tuple[str, Polarity]]) -> set[str]:
    return {n for n, _ in vs}


def rename_bound(binder: tuple[str, Polarity], body: Term, taken: set[str]) -> tuple[str, Term]:
    """A new name for the variable binder bound over body, the first
    `fresh_name` of it outside taken and body's free names, and body with
    its free binder renamed to it."""
    name, pol = binder
    new = fresh_name(name, taken | _names(free_vars(body)) | {name})
    return new, substitute(body, name, pol, Var(new, pol))


def substitute(t: Term, name: str, pol: Polarity, s: Term) -> Term:
    """t with s for every free occurrence of the variable (name, pol).

    Capture is avoided by renaming binders with a minimal numeric suffix.
    """
    if s.pol is not pol:
        raise PolarityMismatch(f"cannot substitute a {s.pol} term for {name}{pol}")
    v = (name, pol)
    fv_s = free_vars(s)

    def go(t: Term) -> Term:
        if isinstance(t, Var):
            return s if (t.name, t.pol) == v else t
        new, names = [], []
        for c, b in zip(children(t), binders(t)):
            x = b and b[0]
            if b != v:  # else c's v is bound, not free
                if b in fv_s and v in free_vars(c):
                    x, c = rename_bound(b, c, _names(fv_s))
                c = go(c)
            new.append(c)
            names.append(x)
        return with_children(t, new, names)

    return go(t)


def alpha_eq(t: Term, u: Term) -> bool:
    """Structural equality up to renaming of bound variables.  One object,
    or roots of another constructor or polarity (the keys start with
    both), settle the answer without building keys."""
    if t is u:
        return True
    return type(t) is type(u) and t.pol is u.pol and alpha_key(t) == alpha_key(u)


def alpha_key(t: Term):
    """Hashable key equal for alpha-equivalent terms; free vars keep identity.
    A bound variable is keyed by the number of binders above its own."""

    def go(t: Term, env: dict, depth: int):
        if isinstance(t, Var):
            k = env.get((t.name, t.pol))
            return ("b", k, t.pol.value) if k is not None else ("f", t.name, t.pol.value)
        tag = type(t).__name__.lower()
        kids = children(t)
        if not kids:
            return (tag,)
        key = [tag, t.pol.value]
        for c, b in zip(kids, binders(t)):
            key.append(go(c, env, depth) if b is None else go(c, {**env, b: depth}, depth + 1))
        return tuple(key)

    return go(t, {}, 0)


# --------------------------------------------------- polarity well-formedness


@dataclass(frozen=True)
class PolarityViolation:
    path: tuple[int, ...]
    message: str


def check_polarities(t: Term) -> list[PolarityViolation]:
    """All structural polarity violations in t; empty means well formed.
    The path to the node being checked is one list, made a tuple only for
    a violation."""
    out: list[PolarityViolation] = []
    path: list[int] = []

    def bad(msg):
        out.append(PolarityViolation(tuple(path), msg))

    def go(t: Term) -> None:
        match t:
            case Var() | Top() | Bot():
                return
            case Pair(left, right, pol):
                if left.pol is not pol:
                    bad(f"pair component 1 is {left.pol}, pair is {pol}")
                if right.pol is not pol:
                    bad(f"pair component 2 is {right.pol}, pair is {pol}")
                kids = left, right
            case Fst(body, pol) | Snd(body, pol):
                if body.pol is not pol:
                    bad(f"projection body is {body.pol}, projection is {pol}")
                kids = (body,)
            case Inl(body, pol) | Inr(body, pol):
                if body.pol is not pol:
                    bad(f"injection body is {body.pol}, injection is {pol}")
                kids = (body,)
            case Case(scrutinee, _, branch1, _, branch2, pol):
                if branch1.pol is not pol:
                    bad(f"branch 1 is {branch1.pol}, case is {pol}")
                if branch2.pol is not pol:
                    bad(f"branch 2 is {branch2.pol}, case is {pol}")
                kids = scrutinee, branch1, branch2
            case Lam(_, body, pol):
                if body.pol is not pol:
                    bad(f"lambda body is {body.pol}, lambda is {pol}")
                kids = (body,)
            case App(fun, arg, pol):
                if fun.pol is not pol:
                    bad(f"applied term is {fun.pol}, application is {pol}")
                if arg.pol is not pol:
                    bad(f"argument is {arg.pol}, application is {pol}")
                kids = fun, arg
            case MPair(pos, neg, _):
                if pos.pol is not PLUS:
                    bad("mixed pair component 1 must be +")
                if neg.pol is not MINUS:
                    bad("mixed pair component 2 must be -")
                kids = pos, neg
            case Abort(body) | Pi1(body) | Pi2(body):
                kids = (body,)
        path.append(0)
        for c in kids:
            go(c)
            path[-1] += 1
        path.pop()

    go(t)
    return out


# ------------------------------------------------------------------ memos


def _once(fn):
    """`fn` computed once per distinct argument for as long as the returned
    function lives; `fn` must not return None.  A JSON load or dump and a
    dualization each make their own, so nothing is kept after the call."""
    seen = {}

    def get(key):
        value = seen.get(key)
        if value is None:
            value = seen[key] = fn(key)
        return value

    return get


# ------------------------------------------------------------------- bases


@dataclass(frozen=True)
class Basis:
    """Assumptions: gamma maps names to formulas taken as proved, delta as
    refuted.  Entries are kept sorted by name."""

    gamma: tuple[tuple[str, Formula], ...] = ()
    delta: tuple[tuple[str, Formula], ...] = ()

    @staticmethod
    def make(gamma: dict[str, Formula] | None = None, delta: dict[str, Formula] | None = None) -> "Basis":
        g = tuple(sorted((gamma or {}).items()))
        d = tuple(sorted((delta or {}).items()))
        return Basis(g, d)

    def side(self, pol: Polarity) -> tuple[tuple[str, Formula], ...]:
        return self.gamma if pol is PLUS else self.delta

    def lookup(self, name: str, pol: Polarity) -> Formula | None:
        for n, f in self.side(pol):
            if n == name:
                return f
        return None

    def extend(self, name: str, pol: Polarity, formula: Formula) -> "Basis":
        entries = dict(self.side(pol))
        entries[name] = formula
        new = tuple(sorted(entries.items()))
        return Basis(new, self.delta) if pol is PLUS else Basis(self.gamma, new)

    def merge(self, other: "Basis") -> "Basis":
        g = dict(self.gamma)
        g.update(other.gamma)
        d = dict(self.delta)
        d.update(other.delta)
        return Basis(tuple(sorted(g.items())), tuple(sorted(d.items())))

    def is_sub(self, other: "Basis") -> bool:
        return set(self.gamma) <= set(other.gamma) and set(self.delta) <= set(other.delta)

    def names(self) -> set[str]:
        return {n for n, _ in self.gamma} | {n for n, _ in self.delta}

    def is_empty(self) -> bool:
        return not self.gamma and not self.delta
