"""Curry-style type checking and principal type inference.

Every constructor-polarity combination matches exactly one rule, so
inference is syntax directed: walk the term, allocate metavariables,
collect first-order constraints, solve by unification.  check() runs the
same inference with the free variables pinned to their basis entries and
then rebuilds the full derivation tree, node by node, each node from its
rule's row in `derivation.RULE_TABLE`.  Unification is over before the
rebuild starts, so check() resolves each metavariable once (one the
constraints left open becomes top) and each node's type once, sharing the
resolved formulas between the nodes that carry them.

principal_typing gives every subterm of a term its own principal typing
in one bottom-up pass; `meaning.sense` reads each node's scheme from it.
"""

from __future__ import annotations

import string
from collections.abc import Callable
from dataclasses import dataclass, field

from .derivation import Derivation, Judgment, _show, instantiate, match_pattern, rule_of
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
    node_type: dict[tuple[int, ...], Formula] = field(default_factory=dict)
    counter: int = 0
    seeded: Basis | None = None
    # check()'s resolved formulas: metavariables by name, compound formulas
    # by id (node_type or subst holds each of them, so no id is reused).
    solved_var: dict[str, Formula] = field(default_factory=dict)
    solved_obj: dict[int, Formula] = field(default_factory=dict)

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
    cx.node_type[path] = ty
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
    are renamed, so the end term is alpha-equal to t (and usually t
    itself).
    """
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
    return _build(t, (), basis, cx)


def _solved(cx: _Ctx, f: Formula) -> Formula:
    """f under the finished substitution, with any metavariable the
    constraints left open pinned to top; memoised in cx, so a part shared
    by many node types is resolved once and stays one object."""
    if isinstance(f, MetaVar):
        got = cx.solved_var.get(f.name)
        if got is None:
            bound = cx.subst.mapping.get(f.name)
            got = cx.solved_var[f.name] = Verum() if bound is None else _solved(cx, bound)
        return got
    if isinstance(f, Connective):
        got = cx.solved_obj.get(id(f))
        if got is None:
            a, b = _solved(cx, f.left), _solved(cx, f.right)
            got = f if a is f.left and b is f.right else type(f)(a, b)
            cx.solved_obj[id(f)] = got
        return got
    return f


def _build(t: Term, path: tuple[int, ...], basis: Basis, cx: _Ctx) -> Derivation:
    """The derivation of t from its rule's row; t itself is its subject
    unless a binder had to be renamed somewhere inside it: one that would
    shadow a basis entry at another formula."""
    ty = _solved(cx, cx.node_type[path])
    rule = rule_of(t)
    if not rule.prems:
        return Derivation(rule.name, Judgment(basis, t.pol, t, ty))
    env = None  # the rule's pattern variables, matched once a discharge needs them
    prems, kids, names = [], [], []
    same = True
    for i, (p, kid, b) in enumerate(zip(rule.prems, children(t), binders(t))):
        inner, x = basis, None
        if b is not None:
            if env is None:
                env = {}
                match_pattern(rule.concl, ty, env)
                for q, d in zip(rule.prems, prems):
                    match_pattern(q.type, d.concl.type, env)
            bound = instantiate(p.binds[1], env)
            x = b[0]
            held = basis.lookup(*b)
            if held is not None and held != bound:
                x, kid = rename_bound(b, kid, basis.names())
                same = False
            inner = basis.extend(x, b[1], bound)
        d = _build(kid, path + (i,), inner, cx)
        prems.append(d)
        kids.append(d.concl.term)
        names.append(x)
        same = same and d.concl.term is kid
    if not same:
        t = with_children(t, kids, names)
    return Derivation(rule.name, Judgment(basis, t.pol, t, ty), tuple(prems))
