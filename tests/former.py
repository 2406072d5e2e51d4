"""Former code kept as references for the differential tests: the
rule-by-rule validator and the alpha-equivalence test as they were written
before the rule table (`l2int.derivation.RULE_TABLE`) and `alpha_key` took
over, and the scoping traversals and the rewrite steps as they were written
before `syntax.binders` and `rewrite._INTROS` (their simp test also asked
that a branch not use the other branch's binder)."""

from __future__ import annotations

import itertools

from l2int.derivation import RULES, Derivation, RuleViolation
from l2int.rewrite import KINDS, NormalizeResult, NotARedex, RedexPosition, TraceStep
from l2int.syntax import (
    PLUS,
    MINUS,
    Abort,
    And,
    App,
    Bot,
    Case,
    CoImp,
    Falsum,
    Formula,
    Fst,
    Imp,
    Inl,
    Inr,
    Lam,
    MPair,
    Or,
    Pair,
    Pi1,
    Pi2,
    Polarity,
    PolarityMismatch,
    Snd,
    Term,
    Top,
    Var,
    Verum,
    check_polarities,
    children,
    fresh_name,
    replace_at,
    subterm_at,
    with_children,
)


def former_validate(d: Derivation) -> list[RuleViolation]:
    """All schema violations in d; empty means the derivation is valid."""
    out: list[RuleViolation] = []
    for v in check_polarities(d.concl.term):
        out.append(RuleViolation((), f"end term ill-polarized: {v.message}"))
    _validate(d, (), out)
    return out


def _validate(d: Derivation, path: tuple[int, ...], out: list[RuleViolation]) -> None:
    bad = lambda msg: out.append(RuleViolation(path, msg))
    j = d.concl

    if d.rule not in RULES:
        bad(f"unknown rule {d.rule!r}")
        return
    if j.pol is not j.term.pol:
        bad(f"conclusion polarity {j.pol} does not match its term")

    def prem_basis_ok(i: int, discharged: tuple[str, Polarity, Formula] | None) -> None:
        pb, cb = d.prems[i].concl.basis, j.basis
        extra_g = set(pb.gamma) - set(cb.gamma)
        extra_d = set(pb.delta) - set(cb.delta)
        if discharged is not None:
            name, pol, formula = discharged
            held = cb.lookup(name, pol)
            if held is not None and held != formula:
                bad(f"premise {i} discharges {name}{pol} already assumed at another formula")
                return
            allowed = {(name, formula)}
            if pol is PLUS:
                extra_g -= allowed
            else:
                extra_d -= allowed
        if extra_g or extra_d:
            names = ", ".join(sorted(n for n, _ in extra_g | extra_d))
            bad(f"premise {i} assumes more than the conclusion allows: {names}")
        if not (set(cb.gamma) <= set(pb.gamma) and set(cb.delta) <= set(pb.delta)):
            bad(f"premise {i} drops assumptions from the conclusion's basis")

    def prem(i: int, pol: Polarity, term: Term, typ: Formula | None,
             discharged: tuple[str, Polarity, Formula] | None = None) -> Formula:
        pj = d.prems[i].concl
        if pj.pol is not pol:
            bad(f"premise {i} must be {pol}, is {pj.pol}")
        if pj.term != term:
            bad(f"premise {i} subject must be the matching subterm of the conclusion")
        if typ is not None and pj.type != typ:
            bad(f"premise {i} must conclude the matching formula")
        prem_basis_ok(i, discharged)
        return pj.type

    def arity(n: int) -> bool:
        if len(d.prems) != n:
            bad(f"{d.rule} takes {n} premises, found {len(d.prems)}")
            return False
        return True

    t, a = j.term, j.type
    ok_shape = True
    match d.rule:
        case "Hyp+" | "Hyp-":
            want = PLUS if d.rule == "Hyp+" else MINUS
            if not arity(0):
                return
            if not isinstance(t, Var) or j.pol is not want:
                bad(f"{d.rule} concludes a {want} variable")
            elif j.basis.lookup(t.name, want) != a:
                bad(f"{t.name}{want} is not assumed at {a} in the basis")
        case "TopI":
            if arity(0) and not (isinstance(t, Top) and a == Verum()):
                bad("TopI concludes top+ : top")
        case "BotI_d":
            if arity(0) and not (isinstance(t, Bot) and a == Falsum()):
                bad("BotI_d concludes bot- : bot")
        case "BotE":
            if not (isinstance(t, Abort) and arity(1)):
                bad("BotE concludes an abort term from one premise")
                return
            prem(0, PLUS, t.body, Falsum())
        case "TopE_d":
            if not (isinstance(t, Abort) and arity(1)):
                bad("TopE_d concludes an abort term from one premise")
                return
            prem(0, MINUS, t.body, Verum())
        case "AndI":
            if not (isinstance(t, Pair) and j.pol is PLUS and isinstance(a, And) and arity(2)):
                bad("AndI concludes <s, t>+ : A & B from two premises")
                return
            prem(0, PLUS, t.left, a.left)
            prem(1, PLUS, t.right, a.right)
        case "OrI_d":
            if not (isinstance(t, Pair) and j.pol is MINUS and isinstance(a, Or) and arity(2)):
                bad("OrI_d concludes <s, t>- : A | B from two premises")
                return
            prem(0, MINUS, t.left, a.left)
            prem(1, MINUS, t.right, a.right)
        case "AndE1" | "AndE2":
            if not (isinstance(t, Fst | Snd) and j.pol is PLUS and arity(1)):
                bad(f"{d.rule} concludes a + projection from one premise")
                return
            if d.rule == "AndE1" and not isinstance(t, Fst):
                bad("AndE1 concludes fst")
            if d.rule == "AndE2" and not isinstance(t, Snd):
                bad("AndE2 concludes snd")
            got = prem(0, PLUS, t.body, None)
            if not isinstance(got, And):
                bad("premise 0 must conclude a conjunction")
            elif (got.left if d.rule == "AndE1" else got.right) != a:
                bad("conclusion must be the matching conjunct")
        case "OrE_d1" | "OrE_d2":
            if not (isinstance(t, Fst | Snd) and j.pol is MINUS and arity(1)):
                bad(f"{d.rule} concludes a - projection from one premise")
                return
            if d.rule == "OrE_d1" and not isinstance(t, Fst):
                bad("OrE_d1 concludes fst")
            if d.rule == "OrE_d2" and not isinstance(t, Snd):
                bad("OrE_d2 concludes snd")
            got = prem(0, MINUS, t.body, None)
            if not isinstance(got, Or):
                bad("premise 0 must conclude a disjunction")
            elif (got.left if d.rule == "OrE_d1" else got.right) != a:
                bad("conclusion must be the matching disjunct")
        case "OrI1" | "OrI2":
            if not (isinstance(t, Inl | Inr) and j.pol is PLUS and isinstance(a, Or) and arity(1)):
                bad(f"{d.rule} concludes a + injection : A | B from one premise")
                return
            if d.rule == "OrI1" and not isinstance(t, Inl):
                bad("OrI1 concludes inl")
            if d.rule == "OrI2" and not isinstance(t, Inr):
                bad("OrI2 concludes inr")
            prem(0, PLUS, t.body, a.left if d.rule == "OrI1" else a.right)
        case "AndI_d1" | "AndI_d2":
            if not (isinstance(t, Inl | Inr) and j.pol is MINUS and isinstance(a, And) and arity(1)):
                bad(f"{d.rule} concludes a - injection : A & B from one premise")
                return
            if d.rule == "AndI_d1" and not isinstance(t, Inl):
                bad("AndI_d1 concludes inl")
            if d.rule == "AndI_d2" and not isinstance(t, Inr):
                bad("AndI_d2 concludes inr")
            prem(0, MINUS, t.body, a.left if d.rule == "AndI_d1" else a.right)
        case "ImpI":
            if not (isinstance(t, Lam) and j.pol is PLUS and isinstance(a, Imp) and arity(1)):
                bad("ImpI concludes a + lambda : A -> B from one premise")
                return
            prem(0, PLUS, t.body, a.right, discharged=(t.binder, PLUS, a.left))
        case "CoImpI_d":
            if not (isinstance(t, Lam) and j.pol is MINUS and isinstance(a, CoImp) and arity(1)):
                bad("CoImpI_d concludes a - lambda : B -< A from one premise")
                return
            prem(0, MINUS, t.body, a.left, discharged=(t.binder, MINUS, a.right))
        case "ImpE":
            if not (isinstance(t, App) and j.pol is PLUS and arity(2)):
                bad("ImpE concludes a + application from two premises")
                return
            got = prem(0, PLUS, t.fun, None)
            if not isinstance(got, Imp):
                bad("premise 0 must conclude an implication")
                return
            if got.right != a:
                bad("conclusion must be the implication's consequent")
            prem(1, PLUS, t.arg, got.left)
        case "CoImpE_d":
            if not (isinstance(t, App) and j.pol is MINUS and arity(2)):
                bad("CoImpE_d concludes a - application from two premises")
                return
            got = prem(0, MINUS, t.fun, None)
            if not isinstance(got, CoImp):
                bad("premise 0 must conclude a co-implication")
                return
            if got.left != a:
                bad("conclusion must be the co-implication's proved part")
            prem(1, MINUS, t.arg, got.right)
        case "ImpI_d":
            if not (isinstance(t, MPair) and j.pol is MINUS and isinstance(a, Imp) and arity(2)):
                bad("ImpI_d concludes a - mixed pair : A -> B from two premises")
                return
            prem(0, PLUS, t.pos, a.left)
            prem(1, MINUS, t.neg, a.right)
        case "CoImpI":
            if not (isinstance(t, MPair) and j.pol is PLUS and isinstance(a, CoImp) and arity(2)):
                bad("CoImpI concludes a + mixed pair : B -< A from two premises")
                return
            prem(0, PLUS, t.pos, a.left)
            prem(1, MINUS, t.neg, a.right)
        case "ImpE_d1":
            if not (isinstance(t, Pi1) and arity(1)):
                bad("ImpE_d1 concludes p1 from one premise")
                return
            got = prem(0, MINUS, t.body, None)
            if not isinstance(got, Imp):
                bad("premise 0 must conclude an implication")
            elif got.left != a:
                bad("conclusion must be the implication's antecedent")
        case "ImpE_d2":
            if not (isinstance(t, Pi2) and arity(1)):
                bad("ImpE_d2 concludes p2 from one premise")
                return
            got = prem(0, MINUS, t.body, None)
            if not isinstance(got, Imp):
                bad("premise 0 must conclude an implication")
            elif got.right != a:
                bad("conclusion must be the implication's consequent")
        case "CoImpE1":
            if not (isinstance(t, Pi1) and arity(1)):
                bad("CoImpE1 concludes p1 from one premise")
                return
            got = prem(0, PLUS, t.body, None)
            if not isinstance(got, CoImp):
                bad("premise 0 must conclude a co-implication")
            elif got.left != a:
                bad("conclusion must be the co-implication's proved part")
        case "CoImpE2":
            if not (isinstance(t, Pi2) and arity(1)):
                bad("CoImpE2 concludes p2 from one premise")
                return
            got = prem(0, PLUS, t.body, None)
            if not isinstance(got, CoImp):
                bad("premise 0 must conclude a co-implication")
            elif got.right != a:
                bad("conclusion must be the co-implication's refuted part")
        case "OrE" | "AndE_d":
            want_q = PLUS if d.rule == "OrE" else MINUS
            if not (isinstance(t, Case) and arity(3)):
                bad(f"{d.rule} concludes a case term from three premises")
                return
            if t.scrutinee.pol is not want_q:
                bad(f"{d.rule} needs a {want_q} scrutinee")
                return
            got = prem(0, want_q, t.scrutinee, None)
            shape = Or if d.rule == "OrE" else And
            if not isinstance(got, shape):
                bad(f"premise 0 must conclude a {'disjunction' if shape is Or else 'conjunction'}")
                return
            prem(1, j.pol, t.branch1, a, discharged=(t.binder1, want_q, got.left))
            prem(2, j.pol, t.branch2, a, discharged=(t.binder2, want_q, got.right))
        case _:
            ok_shape = False

    if not ok_shape:
        bad(f"unknown rule {d.rule!r}")
    for i, p in enumerate(d.prems):
        _validate(p, path + (i,), out)


def former_alpha_eq(t: Term, u: Term) -> bool:
    """Structural equality up to renaming of bound variables."""

    def go(t: Term, u: Term, env_t: dict, env_u: dict, depth: int) -> bool:
        if type(t) is not type(u) or t.pol is not u.pol:
            return False
        match t, u:
            case Var(n1, p), Var(n2, _):
                k1, k2 = env_t.get((n1, p)), env_u.get((n2, p))
                if k1 is None and k2 is None:
                    return n1 == n2
                return k1 == k2
            case Lam(b1, body1, p), Lam(b2, body2, _):
                e1 = dict(env_t)
                e2 = dict(env_u)
                e1[(b1, p)] = depth
                e2[(b2, p)] = depth
                return go(body1, body2, e1, e2, depth + 1)
            case Case(r1, x1, s1, y1, u1, _), Case(r2, x2, s2, y2, u2, _):
                q1, q2 = r1.pol, r2.pol
                if q1 is not q2:
                    return False
                if not go(r1, r2, env_t, env_u, depth):
                    return False
                e1 = dict(env_t)
                e2 = dict(env_u)
                e1[(x1, q1)] = depth
                e2[(x2, q2)] = depth
                if not go(s1, s2, e1, e2, depth + 1):
                    return False
                e1 = dict(env_t)
                e2 = dict(env_u)
                e1[(y1, q1)] = depth
                e2[(y2, q2)] = depth
                return go(u1, u2, e1, e2, depth + 1)
            case _:
                ct, cu = children(t), children(u)
                return len(ct) == len(cu) and all(
                    go(a, b, env_t, env_u, depth) for a, b in zip(ct, cu)
                )

    return go(t, u, {}, {}, 0)


# ------------------------------------------------------- scoping traversals


def former_free_vars(t: Term) -> set[tuple[str, Polarity]]:
    match t:
        case Var(name, pol):
            return {(name, pol)}
        case Top() | Bot():
            return set()
        case Lam(binder, body, pol):
            return former_free_vars(body) - {(binder, pol)}
        case Case(scrutinee, binder1, branch1, binder2, branch2, _):
            q = scrutinee.pol
            return (
                former_free_vars(scrutinee)
                | (former_free_vars(branch1) - {(binder1, q)})
                | (former_free_vars(branch2) - {(binder2, q)})
            )
        case _:
            out: set[tuple[str, Polarity]] = set()
            for c in children(t):
                out |= former_free_vars(c)
            return out


def _names(vs: set[tuple[str, Polarity]]) -> set[str]:
    return {n for n, _ in vs}


def former_substitute(t: Term, name: str, pol: Polarity, s: Term) -> Term:
    if s.pol is not pol:
        raise PolarityMismatch(f"cannot substitute a {s.pol} term for {name}{pol}")
    fv_s = former_free_vars(s)

    def go(t: Term) -> Term:
        match t:
            case Var(n, p):
                return s if (n, p) == (name, pol) else t
            case Top() | Bot():
                return t
            case Lam(binder, body, p):
                if (binder, p) == (name, pol):
                    return t
                if (binder, p) in fv_s and (name, pol) in former_free_vars(body):
                    avoid = _names(fv_s | former_free_vars(body)) | {binder}
                    b2 = fresh_name(binder, avoid)
                    body = former_substitute(body, binder, p, Var(b2, p))
                    return Lam(b2, go(body), p)
                return Lam(binder, go(body), p)
            case Case(scrutinee, b1, s1, b2, s2, p):
                q = scrutinee.pol
                r = go(scrutinee)

                def branch(b: str, body: Term) -> tuple[str, Term]:
                    if (b, q) == (name, pol):
                        return b, body
                    if (b, q) in fv_s and (name, pol) in former_free_vars(body):
                        avoid = _names(fv_s | former_free_vars(body)) | {b}
                        nb = fresh_name(b, avoid)
                        return nb, go(former_substitute(body, b, q, Var(nb, q)))
                    return b, go(body)

                nb1, ns1 = branch(b1, s1)
                nb2, ns2 = branch(b2, s2)
                return Case(r, nb1, ns1, nb2, ns2, p)
            case _:
                return with_children(t, tuple(go(c) for c in children(t)))

    return go(t)


def former_alpha_key(t: Term):
    def go(t: Term, env: dict, depth: int):
        match t:
            case Var(n, p):
                k = env.get((n, p))
                return ("b", k, p.value) if k is not None else ("f", n, p.value)
            case Top():
                return ("top",)
            case Bot():
                return ("bot",)
            case Lam(b, body, p):
                e = dict(env)
                e[(b, p)] = depth
                return ("lam", p.value, go(body, e, depth + 1))
            case Case(r, x, s, y, u, p):
                q = r.pol
                ex = dict(env)
                ex[(x, q)] = depth
                ey = dict(env)
                ey[(y, q)] = depth
                return (
                    "case",
                    p.value,
                    go(r, env, depth),
                    go(s, ex, depth + 1),
                    go(u, ey, depth + 1),
                )
            case _:
                tag = type(t).__name__.lower()
                return (tag, t.pol.value) + tuple(go(c, env, depth) for c in children(t))

    return go(t, {}, 0)


def former_canonical_variable_form(t: Term) -> Term:
    fresh = map("v{}".format, itertools.count())
    free: dict[tuple[str, Polarity], str] = {}

    def go(t: Term, bound: dict[tuple[str, Polarity], str]) -> Term:
        match t:
            case Var(n, p):
                name = bound.get((n, p))
                if name is None:
                    name = free.setdefault((n, p), next(fresh))
                return Var(name, p)
            case Lam(x, body, p):
                nx = next(fresh)
                inner = dict(bound)
                inner[(x, p)] = nx
                return Lam(nx, go(body, inner), p)
            case Case(scrutinee, x, s1, y, s2, p):
                q = scrutinee.pol
                r = go(scrutinee, bound)
                nx = next(fresh)
                in1 = dict(bound)
                in1[(x, q)] = nx
                b1 = go(s1, in1)
                ny = next(fresh)
                in2 = dict(bound)
                in2[(y, q)] = ny
                b2 = go(s2, in2)
                return Case(r, nx, b1, ny, b2, p)
            case _:
                return with_children(t, tuple(go(c, bound) for c in children(t)))

    return go(t, {})


# ------------------------------------------------------------ rewrite steps


def _redexes_here(t: Term) -> list[tuple[str, str]]:
    out: list[tuple[str, str]] = []
    match t:
        case App(Lam(), _, _):
            out.append(("beta", "beta-App"))
        case App(Case(), _, _):
            out.append(("perm", "perm-App"))
        case Pi1(MPair()):
            out.append(("beta", "beta-Pi1"))
        case Pi1(Case()):
            out.append(("perm", "perm-Pi1"))
        case Pi2(MPair()):
            out.append(("beta", "beta-Pi2"))
        case Pi2(Case()):
            out.append(("perm", "perm-Pi2"))
        case Fst(Pair(), _):
            out.append(("beta", "beta-Fst"))
        case Fst(Case(), _):
            out.append(("perm", "perm-Fst"))
        case Snd(Pair(), _):
            out.append(("beta", "beta-Snd"))
        case Snd(Case(), _):
            out.append(("perm", "perm-Snd"))
        case Case(scrutinee=Inl()):
            out.append(("beta", "beta-CaseInl"))
        case Case(scrutinee=Inr()):
            out.append(("beta", "beta-CaseInr"))
        case Case(scrutinee=Case()):
            out.append(("perm", f"perm-Case{t.pol}"))
    if isinstance(t, Case):
        q = t.scrutinee.pol
        binders = {(t.binder1, q), (t.binder2, q)}
        if not (binders & former_free_vars(t.branch1)):
            out.append(("simp", "simp-left"))
        if not (binders & former_free_vars(t.branch2)):
            out.append(("simp", "simp-right"))
    return out


def former_find_redexes(t: Term) -> list[RedexPosition]:
    out: list[RedexPosition] = []

    def go(t: Term, path: tuple[int, ...]) -> None:
        for kind, detail in _redexes_here(t):
            out.append(RedexPosition(path, kind, detail))
        for i, c in enumerate(children(t)):
            go(c, path + (i,))

    go(t, ())
    return out


def _freshen_branch(binder: str, body: Term, q, avoid: Term | tuple[Term, ...]):
    moved = avoid if isinstance(avoid, tuple) else (avoid,)
    incoming = set()
    for u in moved:
        incoming |= former_free_vars(u)
    if (binder, q) not in incoming:
        return binder, body
    taken = {n for n, _ in incoming | former_free_vars(body)} | {binder}
    renamed = fresh_name(binder, taken)
    return renamed, former_substitute(body, binder, q, Var(renamed, q))


def _push_into_case(c: Case, wrap, pol, avoid: tuple[Term, ...] = ()) -> Case:
    q = c.scrutinee.pol
    x, s1 = _freshen_branch(c.binder1, c.branch1, q, avoid)
    y, s2 = _freshen_branch(c.binder2, c.branch2, q, avoid)
    return Case(c.scrutinee, x, wrap(s1), y, wrap(s2), pol)


def _contract(t: Term, detail: str) -> Term:
    match detail, t:
        case "beta-App", App(Lam(x, body, p), s, _):
            return former_substitute(body, x, p, s)
        case "beta-Pi1", Pi1(MPair(pos, _, _)):
            return pos
        case "beta-Pi2", Pi2(MPair(_, neg, _)):
            return neg
        case "beta-Fst", Fst(Pair(left, _, _), _):
            return left
        case "beta-Snd", Snd(Pair(_, right, _), _):
            return right
        case "beta-CaseInl", Case(Inl(r, q), x, s1, _, _, _):
            return former_substitute(s1, x, q, r)
        case "beta-CaseInr", Case(Inr(r, q), _, _, y, s2, _):
            return former_substitute(s2, y, q, r)
        case "perm-App", App(Case() as c, u, p):
            return _push_into_case(c, lambda b: App(b, u, p), p, avoid=(u,))
        case "perm-Pi1", Pi1(Case() as c):
            return _push_into_case(c, Pi1, PLUS)
        case "perm-Pi2", Pi2(Case() as c):
            return _push_into_case(c, Pi2, MINUS)
        case "perm-Fst", Fst(Case() as c, p):
            return _push_into_case(c, lambda b: Fst(b, p), p)
        case "perm-Snd", Snd(Case() as c, p):
            return _push_into_case(c, lambda b: Snd(b, p), p)
        case ("perm-Case+" | "perm-Case-"), Case(Case() as c, z1, u1, z2, u2, p):
            wrap = lambda b: Case(b, z1, u1, z2, u2, p)
            return _push_into_case(c, wrap, p, avoid=(u1, u2))
        case "simp-left", Case(_, _, s1, _, _, _):
            return s1
        case "simp-right", Case(_, _, _, _, s2, _):
            return s2
    raise NotARedex(f"no {detail} redex at this position")


def former_step(t: Term, pos: RedexPosition) -> Term:
    sub = subterm_at(t, pos.path)
    if (pos.kind, pos.detail) not in _redexes_here(sub):
        raise NotARedex(f"no {pos.detail} redex at {pos.path}")
    return replace_at(t, pos.path, _contract(sub, pos.detail))


def former_normalize(t: Term, fuel: int) -> NormalizeResult:
    steps: list[TraceStep] = []
    while True:
        rs = former_find_redexes(t)
        if not rs:
            return NormalizeResult(t, steps)
        if len(steps) >= fuel:
            return NormalizeResult(t, steps, exhausted=True)
        pos = min(rs, key=lambda r: KINDS.index(r.kind))
        t = former_step(t, pos)
        steps.append(TraceStep(pos, t))
