"""Curry-style type checking and principal type inference.

Every constructor-polarity combination matches exactly one rule, so
inference is syntax directed: walk the term, allocate metavariables,
collect first-order constraints, solve by unification.  That is
`infer_principal`.

check() is bidirectional (Pierce & Turner, "Local Type Inference", 2000;
Dunfield & Krishnaswami, "Bidirectional Typing", 2021): one pass pushes
the known formulas down each node's row in `derivation.RULE_TABLE`.  A
variable reads its formula from the basis, an introduction checked
against a known connective splits it, and an elimination synthesizes its
head.  A metavariable is made only where neither way gives a formula (an
abort, an injection or a lambda whose formula is not pushed down), and
the pass builds each derivation node as it returns.  When it made none,
the tree is final; otherwise one resolving walk pins the metavariables
still open to top and rebuilds only the nodes that hold one.  A failure
replays the inference above, so every error keeps its text and path.

principal_typing gives every subterm of a term its own principal typing
in one bottom-up pass; `meaning.sense` reads each node's scheme from it.
"""

from __future__ import annotations

import string
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NoReturn

from .derivation import RULE_TABLE, Derivation, Judgment, _show, instantiate, rule_of
from .syntax import (
    PLUS,
    MINUS,
    Abort,
    And,
    App,
    Atom,
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
    check_polarities,
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


@dataclass
class _Ctx:
    subst: Substitution = field(default_factory=Substitution)
    free: dict[tuple[str, Polarity], Formula] = field(default_factory=dict)
    counter: int = 0
    seeded: Basis | None = None

    def fresh(self) -> MetaVar:
        self.counter += 1
        return MetaVar(f"m{self.counter}")


def _infer(t: Term, path: tuple[int, ...], env: dict, cx: _Ctx) -> Formula:
    def uni(a: Formula, b: Formula) -> None:
        try:
            _unify(a, b, cx.subst)
        except UnifyError as e:
            raise Untypable(str(e), path) from e

    match t:
        case Var(n, p):
            if (n, p) in env:
                ty = env[(n, p)]
            elif (n, p) in cx.free:
                ty = cx.free[(n, p)]
            elif cx.seeded is not None:
                held = cx.seeded.lookup(n, p)
                if held is None:
                    raise UnboundVariable(f"{n}{p} is not assumed in the basis")
                cx.free[(n, p)] = held
                ty = held
            else:
                ty = cx.fresh()
                cx.free[(n, p)] = ty
        case Top():
            ty = Verum()
        case Bot():
            ty = Falsum()
        case Abort(body, _):
            want = Falsum() if body.pol is PLUS else Verum()
            uni(_infer(body, path + (0,), env, cx), want)
            ty = cx.fresh()
        case Pair(left, right, p):
            a = _infer(left, path + (0,), env, cx)
            b = _infer(right, path + (1,), env, cx)
            ty = And(a, b) if p is PLUS else Or(a, b)
        case Fst(body, p):
            a, b = cx.fresh(), cx.fresh()
            shape = And(a, b) if p is PLUS else Or(a, b)
            uni(_infer(body, path + (0,), env, cx), shape)
            ty = a
        case Snd(body, p):
            a, b = cx.fresh(), cx.fresh()
            shape = And(a, b) if p is PLUS else Or(a, b)
            uni(_infer(body, path + (0,), env, cx), shape)
            ty = b
        case Inl(body, p):
            a = _infer(body, path + (0,), env, cx)
            other = cx.fresh()
            ty = Or(a, other) if p is PLUS else And(a, other)
        case Inr(body, p):
            b = _infer(body, path + (0,), env, cx)
            other = cx.fresh()
            ty = Or(other, b) if p is PLUS else And(other, b)
        case Case(scrutinee, _, branch1, _, branch2, _):
            _, x, y = binders(t)
            a, b = cx.fresh(), cx.fresh()
            shape = Or(a, b) if x[1] is PLUS else And(a, b)
            uni(_infer(scrutinee, path + (0,), env, cx), shape)
            t1 = _infer(branch1, path + (1,), {**env, x: a}, cx)
            t2 = _infer(branch2, path + (2,), {**env, y: b}, cx)
            uni(t1, t2)
            ty = t1
        case Lam(_, body, p):
            a = cx.fresh()
            b = _infer(body, path + (0,), {**env, binders(t)[0]: a}, cx)
            ty = Imp(a, b) if p is PLUS else CoImp(b, a)
        case App(fun, arg, p):
            tf = _infer(fun, path + (0,), env, cx)
            ta = _infer(arg, path + (1,), env, cx)
            res = cx.fresh()
            uni(tf, Imp(ta, res) if p is PLUS else CoImp(res, ta))
            ty = res
        case MPair(pos, neg, _):
            a = _infer(pos, path + (0,), env, cx)
            b = _infer(neg, path + (1,), env, cx)
            ty = CoImp(a, b) if t.pol is PLUS else Imp(a, b)
        case Pi1(body):
            a, b = cx.fresh(), cx.fresh()
            shape = CoImp(a, b) if body.pol is PLUS else Imp(a, b)
            uni(_infer(body, path + (0,), env, cx), shape)
            ty = a
        case Pi2(body):
            a, b = cx.fresh(), cx.fresh()
            shape = CoImp(a, b) if body.pol is PLUS else Imp(a, b)
            uni(_infer(body, path + (0,), env, cx), shape)
            ty = b
        case _:
            raise TypeError(f"not a term: {t!r}")
    return ty


def infer_principal(t: Term) -> Principal:
    """Most general basis and type making t a valid subject."""
    for v in check_polarities(t):
        raise Untypable(v.message, v.path)
    cx = _Ctx()
    body = cx.subst.apply(_infer(t, (), {}, cx))
    return principal({v: cx.subst.apply(f) for v, f in cx.free.items()}, body, t.pol)


def principal(free: dict[tuple[str, Polarity], Formula], body: Formula, pol: Polarity) -> Principal:
    """The judgment that assumes each free variable at its formula in free
    and concludes body, its metavariables renamed A, B, ... in order of
    first occurrence: in gamma by name, then in delta, then in body."""
    gamma = sorted((n, f) for (n, p), f in free.items() if p is PLUS)
    delta = sorted((n, f) for (n, p), f in free.items() if p is MINUS)
    order = metavars_of(*(f for _, f in gamma), *(f for _, f in delta), body)
    names = {n: _letter(i) for i, n in enumerate(order)}
    basis = Basis(
        tuple((n, _rename_metavars(f, names)) for n, f in gamma),
        tuple((n, _rename_metavars(f, names)) for n, f in delta),
    )
    scheme = TypeScheme(tuple(names[n] for n in order), _rename_metavars(body, names))
    return Principal(basis, pol, scheme)


Typing = tuple[Formula, dict[tuple[str, Polarity], Formula]]


def principal_typing(
    t: Term, s: Substitution, fresh: Callable[[], MetaVar], out: dict[int, Typing]
) -> Typing:
    """t's principal typing (its type and its free variables' formulas), in
    the manner of compositional principal typings (Jim, POPL 1996), under
    the substitution s and with metavariables from fresh; out gets each
    subterm's typing under its id.  Each position instantiates its rule's
    row with metavariables of its own, unifies the row's premises with its
    children's typings, a binder's formula in its child's typing with the
    one its premise discharges, and merges its children's free variables by
    unification.  A subterm's typing is resolved before its parent adds a
    constraint, so it is the subterm's own principal typing.  Any failure
    is raised as it comes."""
    rule, env = rule_of(t), {}
    free: dict[tuple[str, Polarity], Formula] = {}
    if isinstance(t, Var):
        free[t.name, t.pol] = instantiate(rule.concl, env, fresh)
    for p, c, b in zip(rule.prems, children(t), binders(t)):
        ty, kid = principal_typing(c, s, fresh, out)
        _unify(ty, instantiate(p.type, env, fresh), s)
        if b is not None and b in kid:
            _unify(kid[b], instantiate(p.binds[1], env, fresh), s)
        for v, f in kid.items():
            if v != b and free.setdefault(v, f) is not f:
                _unify(free[v], f, s)
    typing = s.apply(instantiate(rule.concl, env, fresh)), {v: s.apply(f) for v, f in free.items()}
    out[id(t)] = typing
    return typing


def schemes_equal(a: TypeScheme, b: TypeScheme) -> bool:
    """Equality modulo renaming of metavariables."""
    na = {n: _letter(i) for i, n in enumerate(metavars_of(a.body))}
    nb = {n: _letter(i) for i, n in enumerate(metavars_of(b.body))}
    return len(a.metavariables) == len(b.metavariables) and _rename_metavars(
        a.body, na
    ) == _rename_metavars(b.body, nb)


def check(basis: Basis, pol: Polarity, t: Term, a: Formula) -> Derivation:
    """Derivation concluding (gamma; delta) =>pol t : a, or an error.

    Free variables must be assumed in the basis at the polarity they are
    used.  Binders that would shadow a basis name at a different formula
    are renamed, so the end term is alpha-equal to t, and t itself when no
    binder is renamed.  One pass (`_Checker.go`) checks polarities, types
    and scoping and builds each node as it returns; a metavariable the
    constraints leave open becomes top.  On a failure the former inference
    is replayed (`_replay`), and its error is raised.
    """
    inputs_closed = all(map(is_ground, (a, *(f for _, f in basis.gamma + basis.delta))))
    c = _Checker(inputs_closed)
    try:
        if pol is not t.pol:
            raise _Fail
        d = c.go(t, basis, a)
    except (_Fail, UnifyError):
        d = None
    if d is None:
        _replay(basis, pol, t, a)
    if c.count == 0 and inputs_closed:
        return d
    return c.resolve(d, basis)


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
    """One run of check: the substitution, the metavariables made so far
    (`count`), the nodes whose subtree made one (`made`, by id) and the
    resolved formulas."""

    def __init__(self, inputs_closed: bool):
        self.subst = Substitution()
        self.count = 0
        self.made: set[int] = set()
        # With a metavariable in the basis or the target, no subtree is
        # known to be closed, so the resolving walk visits every node.
        self.inputs_closed = inputs_closed
        # resolved formulas: metavariables by name, compound formulas by id
        # (the pass's derivations, `kept` and subst hold each of them, so no
        # id is reused)
        self.solved_var: dict[str, Formula] = {}
        self.solved_obj: dict[int, Formula] = {}
        self.kept: list[Derivation] = []
        # the term each term the pass rebuilt (renaming a binder) stands for
        self.source: dict[int, Term] = {}

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
        fixes.  Raises _Fail or UnifyError when t has no typing here."""
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
        names, changed = None, False
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
                x, kid, inner = self._scope(basis, b, instantiate(p.binds[1], env, self.fresh), kid)
                if x != b[0]:
                    names = names or [s and s[0] for s in scopes]
                    names[i], changed = x, True
            d = self.go(kid, inner, known)
            if known is None and not self._split(pat, d.concl.type, env):
                _unify(d.concl.type, instantiate(pat, env, self.fresh), self.subst)
            prems[i] = d
            changed = changed or d.concl.term is not kids[i]
        if want is None or open_want is not None:
            ty = instantiate(rule.concl, env, self.fresh)
            if open_want is not None:
                _unify(open_want, ty, self.subst)
        else:
            ty = want
        if changed:
            new = with_children(t, [d.concl.term for d in prems], names)
            self.source[id(new)] = t
            t = new
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

    def _scope(self, basis: Basis, b: tuple[str, Polarity], f: Formula, kid: Term) -> tuple[str, Term, Basis]:
        """The name of the variable b bound over kid, kid, and the basis
        kid is checked under, which assumes the name at f.  b is renamed
        where it would shadow a basis entry at another formula; where
        either formula holds a metavariable, `resolve` decides."""
        x, q = b
        held = basis.lookup(x, q)
        if held is f:
            return x, kid, basis
        if held is not None and is_ground(held) and is_ground(f) and held != f:
            x, kid = rename_bound(b, kid, basis.names())
        return x, kid, basis.extend(x, q, f)

    def resolve(self, d: Derivation, basis: Basis) -> Derivation:
        """d with every formula `solved`, under basis, d's own basis
        resolved.  A subtree that made no metavariable and whose basis and
        formula hold none is returned as it is.  A binder whose formula
        was open in the pass is renamed here if its resolved formula
        differs from the one basis holds for its name, and its subtree is
        checked again."""
        j = d.concl
        ty = self.solved(j.type)
        if ty is j.type and basis is j.basis and self.inputs_closed and id(d) not in self.made:
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
                    x, kid = rename_bound(b, self.source.get(id(kid), kid), basis.names())
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
        constraints left open pinned to top; memoised, so a part shared by
        many formulas is resolved once and stays one object."""
        if isinstance(f, MetaVar):
            got = self.solved_var.get(f.name)
            if got is None:
                bound = self.subst.mapping.get(f.name)
                got = self.solved_var[f.name] = Verum() if bound is None else self.solved(bound)
            return got
        if isinstance(f, Connective):
            got = self.solved_obj.get(id(f))
            if got is None:
                a, b = self.solved(f.left), self.solved(f.right)
                got = f if a is f.left and b is f.right else type(f)(a, b)
                self.solved_obj[id(f)] = got
            return got
        return f


def _replay(basis: Basis, pol: Polarity, t: Term, a: Formula) -> NoReturn:
    """Raises the error the former inference raises for a judgment check's
    pass rejected, so that each error keeps its class, text and path: the
    first polarity violation, a polarity mismatch, an unbound variable or
    a failed unification where inference meets it, or the end type's
    mismatch."""
    for v in check_polarities(t):
        raise Untypable(v.message, v.path)
    if pol is not t.pol:
        raise TypeMismatch(f"term is {t.pol} but the judgment wants {pol}")
    cx = _Ctx(seeded=basis)
    got = _infer(t, (), {}, cx)
    try:
        _unify(got, a, cx.subst)
    except UnifyError as e:
        raise TypeMismatch(
            f"term has type {_show(cx.subst.apply(got))}, not {_show(a)}"
        ) from e
    raise RuntimeError("check rejected a judgment that inference accepts")
