"""The rule-by-rule validator and the alpha-equivalence test as they were
written before the rule table (`l2int.derivation.RULE_TABLE`) and
`alpha_key` took over, kept as references for the differential tests."""

from __future__ import annotations

from l2int.derivation import RULES, Derivation, RuleViolation
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
    Snd,
    Term,
    Top,
    Var,
    Verum,
    check_polarities,
    children,
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
