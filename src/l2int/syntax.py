"""Core syntax: formulas, polarized terms, bases.

Terms come in two sorts distinguished by a polarity: plus terms stand for
proofs, minus terms for refutations.  A variable is identified by its name
*and* its polarity, so x+ and x- are unrelated.  Binders (lambda and the
case branches) bind one polarity only.  `binders` is the one statement of
which variable each child is scoped under; `free_vars`, `substitute`,
`alpha_key` and the other traversals that track scope read it, and
`rename_bound` is the one capture-avoiding renaming of a binder.

Each term constructor's shape is read off its fields once: its children
are the fields annotated `Term`, and a binder name is the `str` field just
before the child it scopes.  `children` and `binders` read it, and `build`
makes a term of any constructor; the parser, the generator and
`duality.dual_term` build through it.  The binary connectives share one
base class, `Connective`.

Formulas keep no hash.  A JSON load makes every equal formula one object,
made once, and `dual_formula` given a memo dualizes each object once,
part by part, so the dual shares parts wherever its input does.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from collections.abc import Callable, Sequence
from dataclasses import dataclass, fields
from operator import attrgetter, itemgetter


class Polarity(enum.Enum):
    PLUS = "+"
    MINUS = "-"

    # The two members are the only instances, so identity decides equality
    # and object's C-level hash serves: `enum`'s own `__hash__` is a Python
    # call on every (name, polarity) key hashed.
    __hash__ = object.__hash__

    def __init__(self, sign: str) -> None:
        self.sign = sign  # a plain attribute: `value` is a Python-level property

    def flip(self) -> "Polarity":
        return MINUS if self is PLUS else PLUS

    def __str__(self) -> str:
        return self.sign


PLUS = Polarity.PLUS
MINUS = Polarity.MINUS


# ---------------------------------------------------------------- formulas


class Formula:
    """A plain frozen dataclass, recognised by identity and never hashed."""

    __slots__ = ()


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class Falsum(Formula):
    pass


@dataclass(frozen=True)
class Verum(Formula):
    pass


@dataclass(frozen=True)
class Connective(Formula):
    """A binary connective: And, Or, Imp or CoImp."""

    left: Formula
    right: Formula


@dataclass(frozen=True)
class And(Connective):
    pass


@dataclass(frozen=True)
class Or(Connective):
    pass


@dataclass(frozen=True)
class Imp(Connective):
    pass


@dataclass(frozen=True)
class CoImp(Connective):
    """b -< a: something that proves b while refuting a."""


@dataclass(frozen=True)
class MetaVar(Formula):
    """Placeholder used by type inference; never produced by the parser."""

    name: str


def metavars_of(*formulas: Formula) -> list[str]:
    """The metavariables of formulas, each once, in order of first
    occurrence."""
    order: dict[str, None] = {}

    def walk(f: Formula) -> None:
        if isinstance(f, MetaVar):
            order[f.name] = None
        elif isinstance(f, Connective):
            walk(f.left)
            walk(f.right)

    for f in formulas:
        walk(f)
    return list(order)


def is_ground(f: Formula) -> bool:
    """Whether f holds no metavariable."""
    if isinstance(f, Connective):
        return is_ground(f.left) and is_ground(f.right)
    return not isinstance(f, MetaVar)


_DUAL_FORMULA = {Verum: Falsum, Falsum: Verum, And: Or, Or: And, Imp: CoImp, CoImp: Imp}


def dual_formula(f: Formula, memo: dict[int, Formula] | None = None) -> Formula:
    """The dual formula: top and bot swap, conjunction and disjunction swap,
    and the two arrows swap with their sides reversed.  memo, where given,
    maps the id of each formula object dualized so far to its dual, and
    gets the dual of every part of f: a caller dualizing formulas that
    share parts dualizes each object once, and the duals share those parts
    too.  The objects must outlive memo."""
    memo = {} if memo is None else memo
    d = memo.get(id(f))
    if d is not None:
        return d
    dual = _DUAL_FORMULA.get(type(f))
    if isinstance(f, (Atom, MetaVar)):
        d = f
    elif dual is None:
        raise TypeError(f"not a formula: {f!r}")
    elif not isinstance(f, Connective):
        d = dual()
    elif isinstance(f, (Imp, CoImp)):
        d = dual(dual_formula(f.right, memo), dual_formula(f.left, memo))
    else:
        d = dual(dual_formula(f.left, memo), dual_formula(f.right, memo))
    memo[id(f)] = d
    return d


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

    pol = PLUS


@dataclass(frozen=True)
class Bot(Term):
    """The canonical refutation of falsum; always negative."""

    pol = MINUS


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
    pol = PLUS


@dataclass(frozen=True)
class Pi2(Term):
    """Second projection of a mixed pair; always negative."""

    body: Term
    pol = MINUS


def _getter(names: list[str]):
    """The function from a term to the tuple of its fields names, if any."""
    if len(names) == 1:
        get = attrgetter(names[0])
        return lambda t: (get(t),)
    return attrgetter(*names) if names else None


# Per constructor, read off its fields: the getter of its children (the
# fields annotated Term, in order), a None per child, and, where some child
# is bound, per child the field holding the name of the variable bound over
# it (the str field just before it) or None.  A constructor without a pol
# field fixes its polarity as a class attribute.
_CHILDREN: dict[type, Callable[[Term], tuple[Term, ...]] | None] = {}
_UNBOUND: dict[type, tuple[None, ...]] = {}
_BINDER_FIELDS: dict[type, tuple[str | None, ...] | None] = {}
_FIXED_POL: set[type] = set()
for _cls in Term.__subclasses__():
    _fields = fields(_cls)
    _kids = [i for i, f in enumerate(_fields) if f.type == "Term"]
    _CHILDREN[_cls] = _getter([_fields[i].name for i in _kids])
    _UNBOUND[_cls] = (None,) * len(_kids)
    _scoped = tuple(_fields[i - 1].name if i and _fields[i - 1].type == "str" else None for i in _kids)
    _BINDER_FIELDS[_cls] = _scoped if any(_scoped) else None
    if "pol" not in {f.name for f in _fields}:
        _FIXED_POL.add(_cls)


def children(t: Term) -> tuple[Term, ...]:
    """Immediate subterms, left to right.  Binder names are not children.
    A leaf calls no getter, so a traversal's deepest frame is its own."""
    get = _CHILDREN[type(t)]
    return get(t) if get is not None else ()


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
    return _UNBOUND[cls]


def restore(scope: dict, binder, outer) -> None:
    """Undo `outer, scope[binder] = scope.get(binder), ...` after the child
    the binder scopes: the entry goes back to outer, or away if it is None."""
    if outer is None:
        del scope[binder]
    else:
        scope[binder] = outer


def build(cls: type, parts: Sequence, pol: Polarity) -> Term:
    """The term of constructor cls with the fields parts, in order: its
    children, each binder name just before the child it scopes, and a
    variable's name.  pol is its polarity where cls does not fix it."""
    return cls(*parts) if cls in _FIXED_POL else cls(*parts, pol)


def parts_with(t: Term, new: Sequence[Term], names: Sequence[str | None] | None = None) -> Sequence:
    """`build`'s parts for t's constructor with the children new and its
    binder names: names[i] over the binding child i where names is given,
    else t's own."""
    scoped = _BINDER_FIELDS[type(t)]
    if scoped is None:
        return new
    parts = []
    for i, (c, f) in enumerate(zip(new, scoped)):
        if f is not None:
            parts.append(names[i] if names else getattr(t, f))
        parts.append(c)
    return parts


def with_children(t: Term, new: Sequence[Term], names: Sequence[str | None] | None = None) -> Term:
    """t with the children new and, where names is given, the binder
    names names[i] over the binding children i (see `binders`).  It does
    `build`'s work itself, so that a traversal rebuilding each node takes
    one frame per level and one for the constructor, as before."""
    cls = type(t)
    if not _UNBOUND[cls]:
        return t
    parts = parts_with(t, new, names)
    return cls(*parts) if cls in _FIXED_POL else cls(*parts, t.pol)


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

    env: dict = {}  # the binders in scope, each at its depth; set and restored around a child

    def go(t: Term, depth: int):
        sign = t.pol.sign
        if isinstance(t, Var):
            k = env.get((t.name, t.pol))
            return ("b", k, sign) if k is not None else ("f", t.name, sign)
        tag = type(t).__name__.lower()
        kids = children(t)
        if not kids:
            return (tag,)
        key = [tag, sign]
        for c, b in zip(kids, binders(t)):
            if b is None:
                key.append(go(c, depth))
                continue
            outer, env[b] = env.get(b), depth
            key.append(go(c, depth + 1))
            restore(env, b, outer)
        return tuple(key)

    return go(t, 0)


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
        """This basis assuming name at formula on pol's side, in place of
        any entry of that name there."""
        side = self.side(pol)
        i = bisect_left(side, name, key=itemgetter(0))
        j = i + 1 if i < len(side) and side[i][0] == name else i
        new = (*side[:i], (name, formula), *side[j:])
        return Basis(new, self.delta) if pol is PLUS else Basis(self.gamma, new)

    def names(self) -> set[str]:
        return {n for n, _ in self.gamma} | {n for n, _ in self.delta}

    def is_empty(self) -> bool:
        return not self.gamma and not self.delta
