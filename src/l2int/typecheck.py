"""Curry-style type checking and principal type inference.

Every constructor-polarity combination matches exactly one rule, so
typing is syntax directed.  One walker, `_Walker`, instantiates each
node's row in `derivation.RULE_TABLE` with fresh metavariables and unifies
(first order, with occurs check).  Without an `out` dict it pushes a
binder's formula down into its body and keeps one map of free variables:
`infer_principal` renames the typing `infer_typing` gives, and `check`
replays the walk, seeded with the basis, to explain a failure.  With one
it types each subterm on its own, as compositional principal typings do
(Jim, POPL 1996), and stores it under the subterm's id for `meaning.sense`.

check() takes a closed judgment and is bidirectional (Pierce & Turner,
"Local Type Inference", 2000; Dunfield & Krishnaswami, "Bidirectional
Typing", 2021): one pass pushes the known formulas down each node's row
in `derivation.RULE_TABLE`.  A variable reads its formula from the
basis, an introduction checked against a known connective splits it,
and an elimination synthesizes its head.  A metavariable is made only
where neither way gives a formula (an abort, an injection or a lambda
whose formula is not pushed down), and the pass builds each derivation
node over the input's own subterms.  If it made no metavariable and no
binder shadows a basis entry at another formula, the tree is final;
otherwise one resolving walk pins the metavariables still open to top,
alone renames a shadowing binder once its formula is resolved, and
rebuilds only the nodes that hold either.  A failure replays the walker
above, seeded with the basis, so every error keeps its text and path.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field
from itertools import count
from typing import NoReturn

from .derivation import RULE_TABLE, Derivation, Judgment, _show, check_polarities, instantiate, rule_of
from .syntax import (
    PLUS,
    MINUS,
    App,
    Atom,
    Basis,
    Connective,
    Formula,
    MetaVar,
    Polarity,
    Term,
    Var,
    Verum,
    binders,
    children,
    is_ground,
    metavars_of,
    rename_bound,
    with_children,
)


class UnifyError(Exception):
    pass


class Clash(UnifyError):
    pass


class OccursCheck(UnifyError):
    pass


class Untypable(Exception):
    def __init__(self, reason: str, path: tuple[int, ...]):
        super().__init__(f"{reason} (at {'.'.join(map(str, path)) or 'root'})")
        self.reason = reason
        self.path = path


class TypeMismatch(Exception):
    pass


class UnboundVariable(Exception):
    pass


@dataclass
class Substitution:
    mapping: dict[str, Formula] = field(default_factory=dict)

    def walk(self, f: Formula) -> Formula:
        while isinstance(f, MetaVar) and f.name in self.mapping:
            f = self.mapping[f.name]
        return f

    def apply(self, f: Formula) -> Formula:
        """f with every bound metavariable replaced; a part that has none
        is kept as it is."""
        f = self.walk(f)
        if isinstance(f, Connective):
            a, b = self.apply(f.left), self.apply(f.right)
            return f if a is f.left and b is f.right else type(f)(a, b)
        return f


def _occurs(name: str, f: Formula, s: Substitution) -> bool:
    f = s.walk(f)
    if isinstance(f, MetaVar):
        return f.name == name
    if isinstance(f, Connective):
        return _occurs(name, f.left, s) or _occurs(name, f.right, s)
    return False


def _unify(a: Formula, b: Formula, s: Substitution) -> None:
    a, b = s.walk(a), s.walk(b)
    if a is b:
        return
    if isinstance(a, MetaVar):
        if isinstance(b, MetaVar) and a.name == b.name:
            return
        if _occurs(a.name, b, s):
            raise OccursCheck(f"?{a.name} occurs inside the formula it must equal")
        s.mapping[a.name] = b
    elif isinstance(b, MetaVar):
        _unify(b, a, s)
    elif type(a) is not type(b):
        raise Clash(f"{type(a).__name__} is not {type(b).__name__}")
    elif isinstance(a, Connective):
        _unify(a.left, b.left, s)
        _unify(a.right, b.right, s)
    elif isinstance(a, Atom) and a.name != b.name:
        raise Clash(f"atom {a.name} is not {b.name}")


def unify(a: Formula, b: Formula) -> Substitution:
    """Most general unifier of a and b, or Clash/OccursCheck."""
    s = Substitution()
    _unify(a, b, s)
    return s


@dataclass(frozen=True)
class TypeScheme:
    """A formula over metavariables; every metavariable in body is listed."""

    metavariables: tuple[str, ...]
    body: Formula


@dataclass(frozen=True)
class Principal:
    basis: Basis
    pol: Polarity
    scheme: TypeScheme


def _letter(i: int) -> str:
    s = string.ascii_uppercase
    return s[i % 26] + ("" if i < 26 else str(i // 26))


def _rename_metavars(f: Formula, names: dict[str, str]) -> Formula:
    if isinstance(f, MetaVar):
        return MetaVar(names[f.name])
    if isinstance(f, Connective):
        return type(f)(_rename_metavars(f.left, names), _rename_metavars(f.right, names))
    return f


def infer_principal(t: Term) -> Principal:
    """Most general basis and type making t a valid subject."""
    for v in check_polarities(t):
        raise Untypable(v.message, v.path)
    return principal(*infer_typing(t), t.pol)


def principal(body: Formula, free: dict[tuple[str, Polarity], Formula], pol: Polarity) -> Principal:
    """The judgment that concludes body and assumes each free variable at
    its formula in free, its metavariables renamed A, B, ... in order of
    first occurrence: in gamma by name, then in delta, then in body."""
    gamma, delta, names = _lettered(body, free)
    basis = Basis(
        tuple((n, _rename_metavars(f, names)) for n, f in gamma),
        tuple((n, _rename_metavars(f, names)) for n, f in delta),
    )
    return Principal(basis, pol, TypeScheme(tuple(names.values()), _rename_metavars(body, names)))


def principal_scheme(body: Formula, free: dict[tuple[str, Polarity], Formula]) -> TypeScheme:
    """`principal`'s scheme, without renaming the basis: its letters still
    follow first occurrence in gamma, then delta, then body, and list the
    metavariables that occur in the basis alone."""
    names = _lettered(body, free)[2]
    return TypeScheme(tuple(names.values()), _rename_metavars(body, names))


def _lettered(body: Formula, free: dict[tuple[str, Polarity], Formula]):
    """free's gamma and delta entries, each sorted by name, and the letter
    of each metavariable in order of first occurrence in them and body."""
    gamma = sorted((n, f) for (n, p), f in free.items() if p is PLUS)
    delta = sorted((n, f) for (n, p), f in free.items() if p is MINUS)
    order = metavars_of(*(f for _, f in gamma), *(f for _, f in delta), body)
    return gamma, delta, {n: _letter(i) for i, n in enumerate(order)}


Typing = tuple[Formula, dict[tuple[str, Polarity], Formula]]

# Per rule, whether each premise's pattern is a connective holding a later
# premise's whole pattern, a variable (only an application's head's does):
# its child's formula is unified with it once that premise has bound it.
_LATE = {
    r.name: tuple(
        not isinstance(p.type, MetaVar)
        and any(isinstance(q.type, MetaVar) and q.type.name in metavars_of(p.type) for q in r.prems[i + 1 :])
        for i, p in enumerate(r.prems)
    )
    for r in RULE_TABLE.values()
}


def infer_typing(t: Term, out: dict[int, Typing] | None = None) -> Typing:
    """t's typing: its formula and its free variables' formulas, resolved.
    With out, each subterm is typed on its own and out gets its typing
    under its id; see `_Walker`."""
    w, free = _Walker(out), {}
    ty = w.go(t, free)
    return w.resolved(ty, free) if out is None else out[id(t)]


class _Walker:
    """One typing walk.  Each node instantiates its row with fresh
    metavariables ?m1, ?m2, ...: a binder's formula and a connective or
    constant premise pattern before the child (after all children where
    `_LATE` says so), the conclusion last; a variable pattern is bound to
    its child's formula, or unified with the one it holds.  A free variable
    gets a metavariable, or its formula in seeded (else UnboundVariable).
    A failed unification raises Untypable with the node's path, one list
    made a tuple only then.  With out, each child is typed on its own, its
    free variables merged into its parent's, and out gets its typing."""

    def __init__(self, out: dict[int, Typing] | None = None, seeded: Basis | None = None):
        self.subst, self.out, self.seeded, self.path = Substitution(), out, seeded, []
        self.fresh = map(MetaVar, map("m{}".format, count(1))).__next__

    def unify(self, a: Formula, b: Formula) -> None:
        try:
            _unify(a, b, self.subst)
        except UnifyError as e:
            raise Untypable(str(e), tuple(self.path)) from e

    def resolved(self, ty: Formula, free: dict) -> Typing:
        return self.subst.apply(ty), {v: self.subst.apply(f) for v, f in free.items()}

    def go(self, t: Term, variables: dict) -> Formula:
        """t's formula, with variables the formulas of its free variables:
        one dict for the walk, in which each binder is set around its child
        only, over any outer entry for its name."""
        if type(t) is Var:
            v = t.name, t.pol
            ty = variables.get(v)
            if ty is None:
                ty = self.fresh() if self.seeded is None else self.seeded.lookup(*v)
                if ty is None:
                    raise UnboundVariable(f"{t.name}{t.pol} is not assumed in the basis")
                variables[v] = ty
        else:
            rule, env, late = rule_of(t), {}, ()
            out, path, fresh = self.out, self.path, self.fresh
            kids, scopes, deferred = children(t), binders(t), _LATE[rule.name]
            for i, p in enumerate(rule.prems):
                pat, b = p.type, scopes[i]
                want = None if deferred[i] or isinstance(pat, MetaVar) else instantiate(pat, env, fresh)
                f = b and instantiate(p.binds[1], env, fresh)
                if b and out is None:  # b is bound at f over the child only
                    outer, variables[b] = variables.get(b), f
                path.append(i)
                got = self.go(kids[i], variables if out is None else {})
                path.pop()
                if b and out is None:
                    if outer is None:
                        del variables[b]
                    else:
                        variables[b] = outer
                if out is not None:  # merge the child's resolved typing
                    got, kid = out[id(kids[i])]
                    if b in kid:
                        self.unify(kid[b], f)
                    for v, g in kid.items():
                        if v != b:
                            held = variables.setdefault(v, g)
                            if held is not g:
                                self.unify(held, g)
                if want is not None:
                    self.unify(got, want)
                elif deferred[i]:
                    late = (*late, (got, pat))
                else:
                    held = env.setdefault(pat.name, got)
                    if held is not got:
                        self.unify(held, got)
            for got, pat in late:
                self.unify(got, instantiate(pat, env, fresh))
            ty = instantiate(rule.concl, env, fresh)
        if self.out is not None:
            self.out[id(t)] = self.resolved(ty, variables)
        return ty


def schemes_equal(a: TypeScheme, b: TypeScheme) -> bool:
    """Equality modulo renaming of metavariables."""
    na = {n: _letter(i) for i, n in enumerate(metavars_of(a.body))}
    nb = {n: _letter(i) for i, n in enumerate(metavars_of(b.body))}
    return len(a.metavariables) == len(b.metavariables) and _rename_metavars(
        a.body, na
    ) == _rename_metavars(b.body, nb)


def check(basis: Basis, pol: Polarity, t: Term, a: Formula) -> Derivation:
    """Derivation concluding (gamma; delta) =>pol t : a, or an error.

    The judgment must be closed: a metavariable in a or the basis raises
    ValueError naming it, before any other error.  Free variables must be
    assumed in the basis at the polarity they are used.  Binders that
    would shadow a basis name at another formula are renamed, so the end
    term is alpha-equal to t, and t itself when none is.  One pass
    (`_Checker.go`) checks polarities, types and scoping and builds each
    node over t's own subterms; `resolve` pins a metavariable left open to
    top and renames shadowing binders.  On a failure `_replay` runs the
    typing walk seeded with the basis and raises its error.
    """
    held = (a, *(f for _, f in basis.gamma + basis.delta))
    if not all(map(is_ground, held)):
        raise ValueError(f"check takes a closed judgment, but ?{metavars_of(*held)[0]} is a metavariable")
    c = _Checker()
    try:
        if pol is not t.pol:
            raise _Fail
        d = c.go(t, basis, a)
    except (_Fail, UnifyError):
        _replay(basis, pol, t, a)
    return d if c.count == 0 else c.resolve(d, basis)


class _Fail(Exception):
    """check's pass found no typing; `_replay` says why."""


# Constructors whose rule concludes a formula that its premises do not fix:
# an abort's, an injection's other side, a lambda's binder.  Synthesizing
# one makes a metavariable, so where its premise's pattern is a connective
# it is checked against the pattern instead, and an application whose head
# is one synthesizes its argument first.
_GUESSES = frozenset(
    r.ctor
    for r in RULE_TABLE.values()
    if r.prems and not set(metavars_of(r.concl)) <= set(metavars_of(*(p.type for p in r.prems)))
)


class _Checker:
    """One run of check on a closed judgment: the substitution, `count` of
    the metavariables made (which names them) and of the binders checked
    under a basis holding their name at another formula, the nodes whose
    subtree bumped it (`made`, by id) and the resolved formulas."""

    def __init__(self):
        self.subst = Substitution()
        self.count = 0
        self.made: set[int] = set()
        # resolved formulas by id: each metavariable is one object, and the
        # pass's derivations, `kept` and subst hold every key (none reused)
        self.solved_memo: dict[int, Formula] = {}
        self.kept: list[Derivation] = []

    def fresh(self) -> MetaVar:
        self.count += 1
        return MetaVar(f"m{self.count}")

    def go(self, t: Term, basis: Basis, want: Formula | None) -> Derivation:
        """The derivation of t under basis concluding want, or the formula
        t synthesizes where want is None.  The node's row in RULE_TABLE
        says what is known: want splits along the conclusion's pattern, a
        premise whose pattern is known is checked against it, any other is
        synthesized and its formula split along the pattern.  A
        metavariable is made only for a pattern variable that neither
        fixes.  A binder's child is checked under basis assuming the
        binder at its formula, never renamed: `resolve` does that.  Raises
        _Fail or UnifyError when t has no typing here."""
        if type(t) is Var:
            ty = basis.lookup(t.name, t.pol)
            if ty is None:
                raise _Fail
            if want is not None and want is not ty:
                _unify(ty, want, self.subst)
            return Derivation(rule_of(t).name, Judgment(basis, t.pol, t, ty))
        start = self.count
        rule = rule_of(t)
        env: dict[str, Formula] = {}
        open_want = None
        if want is not None and not self._split(rule.concl, want, env):
            open_want = want
        kids, scopes = children(t), binders(t)
        prems = list(kids)
        order = (1, 0) if type(t) is App and type(kids[0]) in _GUESSES else range(len(kids))
        for i in order:
            p, kid, b = rule.prems[i], kids[i], scopes[i]
            if kid.pol is not (t.pol if p.pol is None else p.pol):
                raise _Fail
            pat = p.type
            if isinstance(pat, MetaVar):
                known = env.get(pat.name)
            elif isinstance(pat, Connective) and type(kid) not in _GUESSES:
                known = None
            else:
                known = instantiate(pat, env, self.fresh)
            inner = basis
            if b is not None:
                f = instantiate(p.binds[1], env, self.fresh)
                held = basis.lookup(*b)
                if held is not f:
                    if held is not None and held != f:  # `resolve` decides on a rename
                        self.count += 1
                    inner = basis.extend(*b, f)
            d = self.go(kid, inner, known)
            if known is None and not self._split(pat, d.concl.type, env):
                _unify(d.concl.type, instantiate(pat, env, self.fresh), self.subst)
            prems[i] = d
        if want is None or open_want is not None:
            ty = instantiate(rule.concl, env, self.fresh)
            if open_want is not None:
                _unify(open_want, ty, self.subst)
        else:
            ty = want
        d = Derivation(rule.name, Judgment(basis, t.pol, t, ty), tuple(prems))
        if self.count != start:
            self.made.add(id(d))
        return d

    def _split(self, pat: Formula, f: Formula, env: dict[str, Formula]) -> bool:
        """Binds in env the variables of the pattern pat (a variable, a
        constant or a connective of two variables) to f's parts, unifying
        with any env holds already.  False, binding nothing, when f is an
        open metavariable and pat is not a variable."""
        if isinstance(pat, MetaVar):
            parts = ((pat, f),)
        else:
            if type(f) is not type(pat):
                f = self.subst.walk(f)
                if type(f) is not type(pat):
                    if isinstance(f, MetaVar):
                        return False
                    raise _Fail
            if not isinstance(pat, Connective):
                return True
            parts = ((pat.left, f.left), (pat.right, f.right))
        for v, part in parts:
            held = env.setdefault(v.name, part)
            if held is not part:
                _unify(held, part, self.subst)
        return True

    def resolve(self, d: Derivation, basis: Basis) -> Derivation:
        """d with every formula `solved`, under basis, d's own basis
        resolved.  The judgment is closed, so a subtree not in `made` is
        returned as it is where its basis and formula are unchanged.  This
        is the one place a binder is renamed: where its resolved formula
        differs from the one basis holds for its name, and its subtree is
        then checked again."""
        j = d.concl
        ty = self.solved(j.type)
        if ty is j.type and basis is j.basis and id(d) not in self.made:
            return d
        t = j.term
        scopes = binders(t)
        prems, names, changed = [], None, False
        for i, (p, kid, b) in enumerate(zip(d.prems, children(t), scopes)):
            inner = basis
            if b is not None:
                f = p.concl.basis.lookup(*b)
                solved = self.solved(f)
                held = basis.lookup(*b)
                if held is not None and held is not solved and held != solved:
                    x, kid = rename_bound(b, kid, basis.names())
                    inner = basis.extend(x, b[1], solved)
                    p = self.go(kid, inner, self.solved(p.concl.type))
                    self.kept.append(p)
                    names = names or [s and s[0] for s in scopes]
                    names[i], changed = x, True
                elif basis is j.basis and solved is f:
                    inner = p.concl.basis
                else:
                    inner = basis.extend(b[0], b[1], solved)
            r = self.resolve(p, inner)
            prems.append(r)
            changed = changed or r.concl.term is not kid
        if changed:
            t = with_children(t, [r.concl.term for r in prems], names)
        return Derivation(d.rule, Judgment(basis, j.pol, t, ty), tuple(prems))

    def solved(self, f: Formula) -> Formula:
        """f under the finished substitution, with any metavariable the
        constraints left open pinned to top; memoised by id, so a part
        shared by many formulas is resolved once and stays one object."""
        if not isinstance(f, (Connective, MetaVar)):
            return f
        got = self.solved_memo.get(id(f))
        if got is None:
            if isinstance(f, MetaVar):
                bound = self.subst.mapping.get(f.name)
                got = Verum() if bound is None else self.solved(bound)
            else:
                a, b = self.solved(f.left), self.solved(f.right)
                got = f if a is f.left and b is f.right else type(f)(a, b)
            self.solved_memo[id(f)] = got
        return got


def _replay(basis: Basis, pol: Polarity, t: Term, a: Formula) -> NoReturn:
    """Raises the error inference meets in a judgment check's pass
    rejected, so that each error keeps its class, text and path: the
    first polarity violation, a polarity mismatch, an unbound variable or
    a failed unification where the typing walk meets it, or the end
    type's mismatch."""
    for v in check_polarities(t):
        raise Untypable(v.message, v.path)
    if pol is not t.pol:
        raise TypeMismatch(f"term is {t.pol} but the judgment wants {pol}")
    w = _Walker(seeded=basis)
    got = w.go(t, {})
    try:
        _unify(got, a, w.subst)
    except UnifyError as e:
        raise TypeMismatch(f"term has type {_show(w.subst.apply(got))}, not {_show(a)}") from e
    raise RuntimeError("check rejected a judgment that inference accepts")
