"""Former code kept as references for the differential tests: the
rule-by-rule validator and the alpha-equivalence test as they were written
before the rule table (`l2int.derivation.RULE_TABLE`) and `alpha_key` took
over, and the scoping traversals and the rewrite steps as they were written
before `syntax.binders` and `rewrite._INTROS` (their simp test also asked
that a branch not use the other branch's binder).

The last sections keep the code that spelled out each constructor before
its shape was read off its fields: `children`, `with_children`,
`dual_term`, `print_term` and the term parser (with its keyword branch),
each a case per constructor; the formula parser with a function per level
of precedence, as it was before `textio._INFIX` stated the levels; and the
formula traversals that matched the four connectives one by one
(`dual_formula`, `Substitution.apply`, `_rename_metavars`, whose job
`derivation.instantiate` now does, `_metavar_order` and the unifier).
Everything in this module reaches subterms through these copies, so the
references do not share the code they are compared with.

The next section keeps the JSON dump and `sense` as they were before each
visited every subterm once per derivation: the tree of strings that
`json.dumps` wrote, printed node by node (with `print_formula` as it was,
a helper call per parenthesized side), and a principal scheme inferred
from scratch for each node's subject.

The last sections keep `typecheck.check` as it was before its one
bidirectional pass, with the inference that stored each node's type under
its path and the walk that rebuilt the tree from them, `Basis.extend` as
it was before it inserted by bisection, and `check_polarities` and
`infer_principal` as they were before the rule table drove them: a case
per constructor, and that inference behind the polarity check.  The
former validator, parser, `sense` and `check` call these two, not the
code they are compared with.  The term parser and the formula parser use
`_FormerParser`, whose `peek` could look ahead, as textio's parser state
did then, over the tokens of textio's lexer as it was before each lexer
became one regular expression: `_lex` walked the source one character at
a time, and each token carried its line and column.

The section after that keeps the JSON load and `dual_derivation` as
they were before a load recorded each subformula's text and made each
distinct basis once, and before `dual_derivation` dualized each basis
object once: they parse with the former parsers and dualize with the
former `dual_formula` and `dual_term`.

The next keeps two pieces of code that repeated a library function:
`schemes_equal` with its own lettering, before it reused
`principal_scheme`, and the generator's weighted draw as a subtraction
loop, before it called `random.Random.choices`.

The last keeps `find_redexes`, `step` and `normalize` as they
were before `rewrite._facts` kept each node's free variables and first
redexes for the length of a call: each step scanned the whole term again,
and each case's simp test walked both branches with `free_vars`.  They
contract with `rewrite._beta` and `_perm` and reach subterms through
`syntax`, which that change left as they were, so the differential tests
compare the scan alone."""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import NamedTuple

from l2int.derivation import (
    RULE_TABLE,
    RULES,
    Derivation,
    Judgment,
    PolarityViolation,
    dual_premises,
    RuleViolation,
    instantiate,
    match_pattern,
    rule_of,
)
from l2int.meaning import SenseDescriptor, SenseEntry
from l2int import rewrite
from l2int.rewrite import KINDS, NormalizeResult, NotARedex, RedexPosition, TraceStep
from l2int.syntax import (
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
    PolarityMismatch,
    Snd,
    Term,
    Top,
    Var,
    Verum,
    binders,
    children,
    free_vars,
    fresh_name,
    metavars_of,
    rename_bound,
    replace_at,
    subterm_at,
)
from l2int.textio import (
    DerivationFormatError,
    ParseError,
    PolarityError,
    SourceSpan,
    print_formula,
)
from l2int.typecheck import (
    Clash,
    OccursCheck,
    Principal,
    Substitution,
    TypeMismatch,
    TypeScheme,
    UnboundVariable,
    UnifyError,
    Untypable,
    _letter,
    _unify,
    principal,
)
from l2int.duality import InvalidDerivation


# ------------------------------------------------- the lexer as it was


class _Token(NamedTuple):
    kind: str
    text: str
    start: int
    end: int
    line: int
    column: int

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.start, self.end, self.line, self.column)


# textio's token tables as they were: the two-character and the
# one-character tokens of each lexer.
FORMULA_TOKENS = ("->", "-<"), "()|&"
TERM_TOKENS = (), "()+,-.<>\\{|}"


def _lex(src: str, two_char: tuple[str, ...], singles: str) -> list[_Token]:
    toks: list[_Token] = []
    i, line, col = 0, 0, 0
    while i < len(src):
        ch = src[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 0
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        for op in two_char:
            if src.startswith(op, i):
                toks.append(_Token(op, op, i, i + 2, line, col))
                i += 2
                col += 2
                break
        else:
            if ch.islower() and ch.isalpha():
                j = i
                while j < len(src) and (src[j].isalnum() or src[j] == "_"):
                    j += 1
                toks.append(_Token("ident", src[i:j], i, j, line, col))
                col += j - i
                i = j
            elif ch in singles:
                toks.append(_Token(ch, ch, i, i + 1, line, col))
                i += 1
                col += 1
            else:
                raise ParseError(f"unexpected character {ch!r}", SourceSpan(i, i + 1, line, col))
    toks.append(_Token("eof", "", len(src), len(src), line, col))
    return toks


class _Parser:
    """A position in a token list that ends with one eof token, which
    `next` never moves past, so `toks[pos]` is always a token."""

    def __init__(self, tokens: list[_Token]):
        self.toks = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def next(self) -> _Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def expect(self, kind: str) -> _Token:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(
                f"expected {kind!r}, found {t.text or 'end of input'!r}",
                t.span,
                frozenset({kind}),
            )
        return self.next()

    def fail(self, message: str, expected: frozenset[str] = frozenset()):
        raise ParseError(message, self.peek().span, expected)


def _too_deep(p: _Parser) -> ParseError:
    return ParseError("nested too deeply", p.peek().span)


def _pol(p: _Parser) -> Polarity:
    pol = {"+": PLUS, "-": MINUS}.get(p.toks[p.pos].kind)
    if pol is None:
        p.fail(f"expected '+' or '-', found {p.peek().text or 'end of input'!r}", frozenset({"+", "-"}))
    p.pos += 1
    return pol


class _FormerParser(_Parser):
    """textio's parser state as it was before `peek` read the current
    token only: any token ahead, clamped to the last."""

    def peek(self, ahead: int = 0):
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]


def former_validate(d: Derivation) -> list[RuleViolation]:
    """All schema violations in d; empty means the derivation is valid."""
    out: list[RuleViolation] = []
    for v in former_check_polarities(d.concl.term):
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
                ct, cu = former_children(t), former_children(u)
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
            for c in former_children(t):
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
                return former_with_children(t, tuple(go(c) for c in former_children(t)))

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
                return (tag, t.pol.value) + tuple(go(c, env, depth) for c in former_children(t))

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
                return former_with_children(t, tuple(go(c, bound) for c in former_children(t)))

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
        for i, c in enumerate(former_children(t)):
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
    sub = _subterm_at(t, pos.path)
    if (pos.kind, pos.detail) not in _redexes_here(sub):
        raise NotARedex(f"no {pos.detail} redex at {pos.path}")
    return _replace_at(t, pos.path, _contract(sub, pos.detail))


def _replace_at(t: Term, path: tuple[int, ...], new: Term) -> Term:
    if not path:
        return new
    kids = list(former_children(t))
    kids[path[0]] = _replace_at(kids[path[0]], path[1:], new)
    return former_with_children(t, tuple(kids))


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


# ------------------------------------------------------ constructor shapes


def former_children(t: Term) -> tuple[Term, ...]:
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


def former_with_children(t: Term, new, names=None) -> Term:
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


def former_dual_term(t: Term) -> Term:
    match t:
        case Var(name, pol):
            return Var(name, pol.flip())
        case Top():
            return Bot()
        case Bot():
            return Top()
        case Abort(body, pol):
            return Abort(former_dual_term(body), pol.flip())
        case Pair(left, right, pol):
            return Pair(former_dual_term(left), former_dual_term(right), pol.flip())
        case Fst(body, pol):
            return Fst(former_dual_term(body), pol.flip())
        case Snd(body, pol):
            return Snd(former_dual_term(body), pol.flip())
        case Inl(body, pol):
            return Inl(former_dual_term(body), pol.flip())
        case Inr(body, pol):
            return Inr(former_dual_term(body), pol.flip())
        case Case(scrutinee, b1, s1, b2, s2, pol):
            return Case(
                former_dual_term(scrutinee), b1, former_dual_term(s1), b2, former_dual_term(s2), pol.flip()
            )
        case Lam(binder, body, pol):
            return Lam(binder, former_dual_term(body), pol.flip())
        case App(fun, arg, pol):
            return App(former_dual_term(fun), former_dual_term(arg), pol.flip())
        case MPair(pos, neg, _):
            return MPair(former_dual_term(neg), former_dual_term(pos), t.pol.flip())
        case Pi1(body):
            return Pi2(former_dual_term(body))
        case Pi2(body):
            return Pi1(former_dual_term(body))
    raise TypeError(f"not a term: {t!r}")


def former_print_term(t: Term) -> str:
    match t:
        case Var(name, pol):
            return f"{name}{pol}"
        case Top():
            return "top+"
        case Bot():
            return "bot-"
        case Abort(body, pol):
            return f"abort{pol}({former_print_term(body)})"
        case Pair(left, right, pol):
            return f"<{former_print_term(left)}, {former_print_term(right)}>{pol}"
        case Fst(body, pol):
            return f"fst{pol}({former_print_term(body)})"
        case Snd(body, pol):
            return f"snd{pol}({former_print_term(body)})"
        case Inl(body, pol):
            return f"inl{pol}({former_print_term(body)})"
        case Inr(body, pol):
            return f"inr{pol}({former_print_term(body)})"
        case Case(scrutinee, _, s1, _, s2, pol):
            _, (b1, q), (b2, _) = binders(t)
            return (
                f"case {former_print_term(scrutinee)} "
                f"{{{b1}{q}. {former_print_term(s1)} | {b2}{q}. {former_print_term(s2)}}}{pol}"
            )
        case Lam(_, body, pol):
            ((x, q),) = binders(t)
            return f"(\\{x}{q}. {former_print_term(body)}){pol}"
        case App(fun, arg, pol):
            return f"app{pol}({former_print_term(fun)}, {former_print_term(arg)})"
        case MPair(pos, neg, pol):
            return f"{{{former_print_term(pos)}, {former_print_term(neg)}}}{pol}"
        case Pi1(body):
            return f"p1+({former_print_term(body)})"
        case Pi2(body):
            return f"p2-({former_print_term(body)})"
    raise TypeError(f"not a term: {t!r}")


_TERM_KEYWORDS = {"top", "bot", "abort", "fst", "snd", "inl", "inr", "case", "app", "p1", "p2"}


def former_parse_term(src: str, spans: dict[int, SourceSpan] | None = None) -> Term:
    """spans, where given, gets the place in src of each subterm, by id."""
    spans = {} if spans is None else spans
    p = _FormerParser(_lex(src, *TERM_TOKENS))
    try:
        t = _term(p, spans)
        if p.peek().kind != "eof":
            p.fail(f"unexpected {p.peek().text!r} after term")
        violations = former_check_polarities(t)
    except RecursionError as e:
        raise _too_deep(p) from e
    if violations:
        v = violations[0]
        raise PolarityError(v.message, spans[id(_subterm_at(t, v.path))])
    return t


def _subterm_at(t: Term, path: tuple[int, ...]) -> Term:
    for i in path:
        t = former_children(t)[i]
    return t


def _binder(p: _FormerParser) -> tuple[str, Polarity]:
    t = p.expect("ident")
    if t.text in _TERM_KEYWORDS:
        raise ParseError(f"{t.text!r} is reserved and cannot bind", t.span)
    return t.text, _pol(p)


def _term(p: _FormerParser, spans: dict[int, SourceSpan]) -> Term:
    start = p.peek().span

    def record(t: Term) -> Term:
        end = p.toks[p.pos - 1].span if p.pos else start
        spans[id(t)] = SourceSpan(start.start, end.end, start.line, start.column)
        return t

    tok = p.peek()
    if tok.kind == "(":
        if p.peek(1).kind == "\\":
            p.next()
            p.next()
            name, bpol = _binder(p)
            p.expect(".")
            body = _term(p, spans)
            p.expect(")")
            pol = _pol(p)
            if bpol is not pol:
                raise ParseError(
                    f"lambda binder is {bpol} but the lambda is {pol}", tok.span
                )
            return record(Lam(name, body, pol))
        p.next()
        t = _term(p, spans)
        p.expect(")")
        return record(t)
    if tok.kind == "<":
        p.next()
        left = _term(p, spans)
        p.expect(",")
        right = _term(p, spans)
        p.expect(">")
        return record(Pair(left, right, _pol(p)))
    if tok.kind == "{":
        p.next()
        pos = _term(p, spans)
        p.expect(",")
        neg = _term(p, spans)
        p.expect("}")
        return record(MPair(pos, neg, _pol(p)))
    if tok.kind == "ident":
        p.next()
        word = tok.text
        if word == "top":
            p.expect("+")
            return record(Top())
        if word == "bot":
            p.expect("-")
            return record(Bot())
        if word in ("abort", "fst", "snd", "inl", "inr", "p1", "p2"):
            pol = _pol(p)
            p.expect("(")
            body = _term(p, spans)
            p.expect(")")
            if word == "p1":
                if pol is not PLUS:
                    raise ParseError("p1 is always +", tok.span)
                return record(Pi1(body))
            if word == "p2":
                if pol is not MINUS:
                    raise ParseError("p2 is always -", tok.span)
                return record(Pi2(body))
            ctor = {"abort": Abort, "fst": Fst, "snd": Snd, "inl": Inl, "inr": Inr}[word]
            return record(ctor(body, pol))
        if word == "app":
            pol = _pol(p)
            p.expect("(")
            fun = _term(p, spans)
            p.expect(",")
            arg = _term(p, spans)
            p.expect(")")
            return record(App(fun, arg, pol))
        if word == "case":
            scrutinee = _term(p, spans)
            p.expect("{")
            b1, q1 = _binder(p)
            p.expect(".")
            branch1 = _term(p, spans)
            p.expect("|")
            b2, q2 = _binder(p)
            p.expect(".")
            branch2 = _term(p, spans)
            p.expect("}")
            pol = _pol(p)
            if q1 is not scrutinee.pol or q2 is not scrutinee.pol:
                raise ParseError(
                    f"case binders must match the scrutinee's polarity ({scrutinee.pol})",
                    tok.span,
                )
            return record(Case(scrutinee, b1, branch1, b2, branch2, pol))
        return record(Var(word, _pol(p)))
    p.fail(f"expected a term, found {tok.text or 'end of input'!r}")


# ------------------------------------------------------- formula parser


def former_parse_formula(src: str) -> Formula:
    """textio.parse_formula as it was before `textio._INFIX` drove it: a
    function per level."""
    p = _FormerParser(_lex(src, *FORMULA_TOKENS))
    try:
        f = _formula(p)
    except RecursionError as e:
        raise _too_deep(p) from e
    if p.peek().kind != "eof":
        p.fail(f"unexpected {p.peek().text!r} after formula")
    return f


def _formula(p: _FormerParser) -> Formula:
    left = _disjunct(p)
    op = p.peek().kind
    if op not in ("->", "-<"):
        return left
    if op == "->":
        parts = [left]
        while p.peek().kind == "->":
            p.next()
            if p.peek(0).kind == "eof":
                p.fail("expected a formula after '->'")
            parts.append(_disjunct(p))
            if p.peek().kind == "-<":
                p.fail("cannot mix '->' and '-<' without parentheses")
        f = parts[-1]
        for part in reversed(parts[:-1]):
            f = Imp(part, f)
        return f
    f = left
    while p.peek().kind == "-<":
        p.next()
        f = CoImp(f, _disjunct(p))
        if p.peek().kind == "->":
            p.fail("cannot mix '->' and '-<' without parentheses")
    return f


def _disjunct(p: _FormerParser) -> Formula:
    f = _conjunct(p)
    while p.peek().kind == "|":
        p.next()
        f = Or(f, _conjunct(p))
    return f


def _conjunct(p: _FormerParser) -> Formula:
    f = _atomic(p)
    while p.peek().kind == "&":
        p.next()
        f = And(f, _atomic(p))
    return f


def _atomic(p: _FormerParser) -> Formula:
    t = p.peek()
    if t.kind == "(":
        p.next()
        f = _formula(p)
        p.expect(")")
        return f
    if t.kind == "ident":
        p.next()
        if t.text == "bot":
            return Falsum()
        if t.text == "top":
            return Verum()
        return Atom(t.text)
    p.fail(f"expected a formula, found {t.text or 'end of input'!r}", frozenset({"ident", "("}))


def _formula_level(f: Formula) -> int:
    match f:
        case Imp() | CoImp():
            return 0
        case Or():
            return 1
        case And():
            return 2
        case _:
            return 3


# -------------------------------------------------------- formula traversals


def former_dual_formula(f: Formula) -> Formula:
    match f:
        case Atom() | MetaVar():
            return f
        case Verum():
            return Falsum()
        case Falsum():
            return Verum()
        case And(a, b):
            return Or(former_dual_formula(a), former_dual_formula(b))
        case Or(a, b):
            return And(former_dual_formula(a), former_dual_formula(b))
        case Imp(a, b):
            return CoImp(former_dual_formula(b), former_dual_formula(a))
        case CoImp(a, b):
            return Imp(former_dual_formula(b), former_dual_formula(a))
    raise TypeError(f"not a formula: {f!r}")


def former_apply(s: Substitution, f: Formula) -> Formula:
    """Substitution.apply."""
    f = s.walk(f)
    match f:
        case And(a, b):
            return And(former_apply(s, a), former_apply(s, b))
        case Or(a, b):
            return Or(former_apply(s, a), former_apply(s, b))
        case Imp(a, b):
            return Imp(former_apply(s, a), former_apply(s, b))
        case CoImp(a, b):
            return CoImp(former_apply(s, a), former_apply(s, b))
        case _:
            return f


def former_rename_metavars(f: Formula, names: dict[str, str]) -> Formula:
    match f:
        case MetaVar(n):
            return MetaVar(names[n])
        case And(a, b):
            return And(former_rename_metavars(a, names), former_rename_metavars(b, names))
        case Or(a, b):
            return Or(former_rename_metavars(a, names), former_rename_metavars(b, names))
        case Imp(a, b):
            return Imp(former_rename_metavars(a, names), former_rename_metavars(b, names))
        case CoImp(a, b):
            return CoImp(former_rename_metavars(a, names), former_rename_metavars(b, names))
        case _:
            return f


def former_metavar_order(formulas) -> list[str]:
    order: dict[str, None] = {}

    def walk(f: Formula) -> None:
        match f:
            case MetaVar(n):
                order[n] = None
            case And(a, b) | Or(a, b) | Imp(a, b) | CoImp(a, b):
                walk(a)
                walk(b)

    for f in formulas:
        walk(f)
    return list(order)


def _occurs(name: str, f: Formula, s: Substitution) -> bool:
    f = s.walk(f)
    match f:
        case MetaVar(n):
            return n == name
        case And(a, b) | Or(a, b) | Imp(a, b) | CoImp(a, b):
            return _occurs(name, a, s) or _occurs(name, b, s)
        case _:
            return False


def former_unify(a: Formula, b: Formula, s: Substitution) -> None:
    """typecheck._unify."""
    a, b = s.walk(a), s.walk(b)
    if a is b:
        return
    match a, b:
        case MetaVar(x), MetaVar(y) if x == y:
            return
        case MetaVar(x), _:
            if _occurs(x, b, s):
                raise OccursCheck(f"?{x} occurs inside the formula it must equal")
            s.mapping[x] = b
        case _, MetaVar(_):
            former_unify(b, a, s)
        case Atom(n1), Atom(n2):
            if n1 != n2:
                raise Clash(f"atom {n1} is not {n2}")
        case (Falsum(), Falsum()) | (Verum(), Verum()):
            return
        case (And(a1, b1), And(a2, b2)) | (Or(a1, b1), Or(a2, b2)) | (
            Imp(a1, b1),
            Imp(a2, b2),
        ) | (CoImp(a1, b1), CoImp(a2, b2)):
            former_unify(a1, a2, s)
            former_unify(b1, b2, s)
        case _:
            raise Clash(f"{type(a).__name__} is not {type(b).__name__}")


# ------------------------------------------------- JSON dump and sense


def former_print_formula(f: Formula) -> str:
    """textio.print_formula with its parenthesizing helper, two frames a
    level."""

    def paren(sub: Formula, bare: bool) -> str:
        s = former_print_formula(sub)
        return s if bare else f"({s})"

    match f:
        case Atom(name):
            return name
        case Falsum():
            return "bot"
        case Verum():
            return "top"
        case MetaVar(name):
            return f"?{name}"
        case And(a, b):
            return f"{paren(a, _formula_level(a) >= 2)} & {paren(b, _formula_level(b) >= 3)}"
        case Or(a, b):
            return f"{paren(a, _formula_level(a) >= 1)} | {paren(b, _formula_level(b) >= 2)}"
        case Imp(a, b):
            return f"{paren(a, _formula_level(a) >= 1)} -> {paren(b, isinstance(b, Imp) or _formula_level(b) >= 1)}"
        case CoImp(a, b):
            return f"{paren(a, isinstance(a, CoImp) or _formula_level(a) >= 1)} -< {paren(b, _formula_level(b) >= 1)}"
    raise TypeError(f"not a formula: {f!r}")


def former_derivation_to_obj(d: Derivation) -> dict:
    """The tree `json.dumps` wrote before textio wrote the JSON itself:
    every node's strings printed from scratch."""
    j = d.concl
    concl = {
        "gamma": [[n, former_print_formula(f)] for n, f in j.basis.gamma],
        "delta": [[n, former_print_formula(f)] for n, f in j.basis.delta],
        "pol": str(j.pol),
        "term": former_print_term(j.term),
        "type": former_print_formula(j.type),
    }
    return {"rule": d.rule, "concl": concl, "prems": [former_derivation_to_obj(p) for p in d.prems]}


def former_derivation_to_json(d: Derivation, indent: int | None = 2) -> str:
    return json.dumps(former_derivation_to_obj(d), indent=indent)


def former_sense(d: Derivation) -> SenseDescriptor:
    """meaning.sense as it was before the one pass: every node's subject
    put in canonical form and, when that form is new at its polarity,
    given its own principal scheme by `former_infer_principal`."""
    entries: set[SenseEntry] = set()

    def visit(node: Derivation) -> None:
        key = former_canonical_variable_form(node.concl.term)
        if not any(e.term == key and e.pol is node.concl.pol for e in entries):
            scheme = former_infer_principal(key).scheme
            entries.add(SenseEntry(key, node.concl.pol, scheme))
        for p in node.prems:
            visit(p)

    visit(d)
    return SenseDescriptor(frozenset(entries))


# ------------------------------------------------- check before the one pass


@dataclass
class _FormerCtx:
    subst: Substitution = field(default_factory=Substitution)
    free: dict[tuple[str, Polarity], Formula] = field(default_factory=dict)
    node_type: dict[tuple[int, ...], Formula] = field(default_factory=dict)
    counter: int = 0
    seeded: Basis | None = None
    # resolved formulas: metavariables by name, compound formulas by id
    # (node_type or subst holds each of them, so no id is reused).
    solved_var: dict[str, Formula] = field(default_factory=dict)
    solved_obj: dict[int, Formula] = field(default_factory=dict)

    def fresh(self) -> MetaVar:
        self.counter += 1
        return MetaVar(f"m{self.counter}")


def former_check(basis: Basis, pol: Polarity, t: Term, a: Formula) -> Derivation:
    """typecheck.check as it was before the one bidirectional pass:
    inference with a metavariable per node and each node's type stored
    under its path, the end type unified with a, then the tree rebuilt
    node by node from the stored types."""
    for v in former_check_polarities(t):
        raise Untypable(v.message, v.path)
    if pol is not t.pol:
        raise TypeMismatch(f"term is {t.pol} but the judgment wants {pol}")
    cx = _FormerCtx(seeded=basis)
    got = _former_infer(t, (), {}, cx)
    try:
        _unify(got, a, cx.subst)
    except UnifyError as e:
        raise TypeMismatch(
            f"term has type {print_formula(cx.subst.apply(got))}, not {print_formula(a)}"
        ) from e
    return _former_build(t, (), basis, cx)


def former_open_metavariables(basis: Basis, pol: Polarity, t: Term, a: Formula) -> int:
    """How many metavariables former_check's constraints leave open, to be
    pinned to top, for a judgment it accepts."""
    cx = _FormerCtx(seeded=basis)
    _unify(_former_infer(t, (), {}, cx), a, cx.subst)
    return len({n for f in [*cx.node_type.values(), *cx.free.values()] for n in metavars_of(cx.subst.apply(f))})


def _former_infer(t: Term, path: tuple[int, ...], env: dict, cx: _FormerCtx) -> Formula:
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
            uni(_former_infer(body, path + (0,), env, cx), want)
            ty = cx.fresh()
        case Pair(left, right, p):
            a = _former_infer(left, path + (0,), env, cx)
            b = _former_infer(right, path + (1,), env, cx)
            ty = And(a, b) if p is PLUS else Or(a, b)
        case Fst(body, p):
            a, b = cx.fresh(), cx.fresh()
            shape = And(a, b) if p is PLUS else Or(a, b)
            uni(_former_infer(body, path + (0,), env, cx), shape)
            ty = a
        case Snd(body, p):
            a, b = cx.fresh(), cx.fresh()
            shape = And(a, b) if p is PLUS else Or(a, b)
            uni(_former_infer(body, path + (0,), env, cx), shape)
            ty = b
        case Inl(body, p):
            a = _former_infer(body, path + (0,), env, cx)
            other = cx.fresh()
            ty = Or(a, other) if p is PLUS else And(a, other)
        case Inr(body, p):
            b = _former_infer(body, path + (0,), env, cx)
            other = cx.fresh()
            ty = Or(other, b) if p is PLUS else And(other, b)
        case Case(scrutinee, _, branch1, _, branch2, _):
            _, x, y = binders(t)
            a, b = cx.fresh(), cx.fresh()
            shape = Or(a, b) if x[1] is PLUS else And(a, b)
            uni(_former_infer(scrutinee, path + (0,), env, cx), shape)
            t1 = _former_infer(branch1, path + (1,), {**env, x: a}, cx)
            t2 = _former_infer(branch2, path + (2,), {**env, y: b}, cx)
            uni(t1, t2)
            ty = t1
        case Lam(_, body, p):
            a = cx.fresh()
            b = _former_infer(body, path + (0,), {**env, binders(t)[0]: a}, cx)
            ty = Imp(a, b) if p is PLUS else CoImp(b, a)
        case App(fun, arg, p):
            tf = _former_infer(fun, path + (0,), env, cx)
            ta = _former_infer(arg, path + (1,), env, cx)
            res = cx.fresh()
            uni(tf, Imp(ta, res) if p is PLUS else CoImp(res, ta))
            ty = res
        case MPair(pos, neg, _):
            a = _former_infer(pos, path + (0,), env, cx)
            b = _former_infer(neg, path + (1,), env, cx)
            ty = CoImp(a, b) if t.pol is PLUS else Imp(a, b)
        case Pi1(body):
            a, b = cx.fresh(), cx.fresh()
            shape = CoImp(a, b) if body.pol is PLUS else Imp(a, b)
            uni(_former_infer(body, path + (0,), env, cx), shape)
            ty = a
        case Pi2(body):
            a, b = cx.fresh(), cx.fresh()
            shape = CoImp(a, b) if body.pol is PLUS else Imp(a, b)
            uni(_former_infer(body, path + (0,), env, cx), shape)
            ty = b
        case _:
            raise TypeError(f"not a term: {t!r}")
    cx.node_type[path] = ty
    return ty


def _former_solved(cx: _FormerCtx, f: Formula) -> Formula:
    if isinstance(f, MetaVar):
        got = cx.solved_var.get(f.name)
        if got is None:
            bound = cx.subst.mapping.get(f.name)
            got = cx.solved_var[f.name] = Verum() if bound is None else _former_solved(cx, bound)
        return got
    if isinstance(f, Connective):
        got = cx.solved_obj.get(id(f))
        if got is None:
            a, b = _former_solved(cx, f.left), _former_solved(cx, f.right)
            got = f if a is f.left and b is f.right else type(f)(a, b)
            cx.solved_obj[id(f)] = got
        return got
    return f


def _former_build(t: Term, path: tuple[int, ...], basis: Basis, cx: _FormerCtx) -> Derivation:
    """The derivation of t from its rule's row; t itself is its subject
    unless a binder had to be renamed somewhere inside it: one that would
    shadow a basis entry at another formula."""
    ty = _former_solved(cx, cx.node_type[path])
    rule = rule_of(t)
    if not rule.prems:
        return Derivation(rule.name, Judgment(basis, t.pol, t, ty))
    env = None
    prems, kids, names = [], [], []
    same = True
    for i, (p, kid, b) in enumerate(zip(rule.prems, former_children(t), binders(t))):
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
        d = _former_build(kid, path + (i,), inner, cx)
        prems.append(d)
        kids.append(d.concl.term)
        names.append(x)
        same = same and d.concl.term is kid
    if not same:
        t = former_with_children(t, kids, names)
    return Derivation(rule.name, Judgment(basis, t.pol, t, ty), tuple(prems))


# ------------------------------------------------ Basis.extend before bisect


def former_basis_extend(b: Basis, name: str, pol: Polarity, formula: Formula) -> Basis:
    """Basis.extend as it was before it inserted by bisection: the side
    made a dict, the entry set, and the side sorted again."""
    entries = dict(b.side(pol))
    entries[name] = formula
    new = tuple(sorted(entries.items()))
    return Basis(new, b.delta) if pol is PLUS else Basis(b.gamma, new)


# ------------------------------ polarities and inference before the table


def former_check_polarities(t: Term) -> list[PolarityViolation]:
    """check_polarities as it was before the rule table stated each
    child's polarity: a case per constructor."""
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


def former_infer_principal(t: Term) -> Principal:
    """typecheck.infer_principal as it was before the table-driven walker:
    the first polarity violation raised, then `_former_infer`, a case per
    constructor with a path tuple per node."""
    for v in former_check_polarities(t):
        raise Untypable(v.message, v.path)
    cx = _FormerCtx()
    body = former_apply(cx.subst, _former_infer(t, (), {}, cx))
    return principal(body, {v: former_apply(cx.subst, f) for v, f in cx.free.items()}, t.pol)


# ------------------------------------- the JSON load and the dual as they were


def former_derivation_from_obj(obj) -> Derivation:
    """textio.derivation_from_obj as it was before a load recorded each
    subformula's text and made each distinct basis once: each distinct
    formula string parsed on its own, and every node's basis made and
    sorted afresh.  A premise whose term string is the text of a child of
    its parent's term still gets that child."""
    formulas: dict[str, Formula] = {}
    terms: dict[str, Term] = {}
    spans: dict[int, SourceSpan] = {}

    def formula(src: str) -> Formula:
        if src not in formulas:
            formulas[src] = former_parse_formula(src)
        return formulas[src]

    def subject(src: str, parent):
        if parent is not None:
            parent_term, parent_src = parent
            for child in former_children(parent_term):
                span = spans[id(child)]
                if span.end - span.start == len(src) and parent_src.startswith(src, span.start):
                    return child, parent_src
        if src not in terms:
            terms[src] = former_parse_term(src, spans)
        return terms[src], src

    def is_basis(entries) -> bool:
        return isinstance(entries, list) and all(
            isinstance(e, list) and len(e) == 2 and isinstance(e[0], str) and isinstance(e[1], str)
            for e in entries
        )

    def judgment(obj, parent):
        if not isinstance(obj, dict):
            raise DerivationFormatError("judgment must be an object")
        for key in ("gamma", "delta"):
            if not is_basis(obj.get(key)):
                raise DerivationFormatError(f"{key} must be a list of [name, formula] string pairs")
        for key in ("pol", "term", "type"):
            if not isinstance(obj.get(key), str):
                raise DerivationFormatError(f"{key} must be a string")
        gamma = {n: formula(f) for n, f in obj["gamma"]}
        delta = {n: formula(f) for n, f in obj["delta"]}
        pol = {"+": PLUS, "-": MINUS}.get(obj["pol"])
        if pol is None:
            raise DerivationFormatError(f"pol must be '+' or '-', not {obj['pol']!r}")
        (t, src), typ = subject(obj["term"], parent), formula(obj["type"])
        if len(gamma) != len(obj["gamma"]) or len(delta) != len(obj["delta"]):
            raise DerivationFormatError("duplicate assumption name in basis")
        return Judgment(Basis.make(gamma, delta), pol, t, typ), src

    def node(obj, parent=None) -> Derivation:
        if not isinstance(obj, dict):
            raise DerivationFormatError("derivation must be an object")
        for key in ("rule", "concl", "prems"):
            if key not in obj:
                raise DerivationFormatError(f"derivation node lacks {key!r}")
        if not isinstance(obj["rule"], str):
            raise DerivationFormatError("rule must be a string")
        if not isinstance(obj["prems"], list):
            raise DerivationFormatError("prems must be a list")
        concl, src = judgment(obj["concl"], parent)
        here = (concl.term, src)
        return Derivation(obj["rule"], concl, tuple(node(p, here) for p in obj["prems"]))

    return node(obj)


def former_dual_derivation(d: Derivation) -> Derivation:
    """duality.dual_derivation as it was before it dualized each basis
    object once: every node's basis dualized afresh, and every formula
    and term too."""

    def basis(b: Basis) -> Basis:
        gamma = tuple((n, former_dual_formula(f)) for n, f in b.delta)
        delta = tuple((n, former_dual_formula(f)) for n, f in b.gamma)
        return Basis(gamma, delta)

    def node(d: Derivation) -> Derivation:
        rule = RULE_TABLE.get(d.rule)
        if rule is None:
            raise InvalidDerivation(f"unknown rule {d.rule!r}")
        j = d.concl
        concl = Judgment(basis(j.basis), j.pol.flip(), former_dual_term(j.term), former_dual_formula(j.type))
        prems = dual_premises(rule.ctor, tuple(node(p) for p in d.prems))
        return Derivation(rule.dual, concl, prems)

    return node(d)


# ------------------------------- scheme equality and the generator's draw


def former_schemes_equal(a: TypeScheme, b: TypeScheme) -> bool:
    """Equality modulo renaming of metavariables: each body lettered A, B,
    ... in order of first occurrence, on its own."""
    na = {n: _letter(i) for i, n in enumerate(former_metavar_order([a.body]))}
    nb = {n: _letter(i) for i, n in enumerate(former_metavar_order([b.body]))}
    return len(a.metavariables) == len(b.metavariables) and former_rename_metavars(
        a.body, na
    ) == former_rename_metavars(b.body, nb)


def former_draw(rng, offers, weights: dict[str, float], goal: Formula):
    """The rule `_Gen.go` drew from offers for goal (already walked), with
    one rng.random() call, or None where no rule of positive weight fits
    and it took a hypothesis instead."""
    weighted = [
        (r, weights[r.name])
        for r in offers
        if isinstance(r.concl, MetaVar) or isinstance(goal, (MetaVar, type(r.concl)))
    ]
    weighted = [(r, w) for r, w in weighted if w > 0]
    if not weighted:
        return None
    total = sum(w for _, w in weighted)
    pick = rng.random() * total
    rule = weighted[-1][0]
    for r, w in weighted:
        pick -= w
        if pick <= 0:
            rule = r
            break
    return rule


# ------------------------------ the normalizer that rescanned at every step


def _rescan_here(t: Term) -> list[tuple[str, str]]:
    out: list[tuple[str, str]] = []
    intros = rewrite._INTROS.get(type(t))
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


def rescan_find_redexes(t: Term) -> list[RedexPosition]:
    """Every redex position, outermost first, left to right."""
    out: list[RedexPosition] = []

    def go(t: Term, path: tuple[int, ...]) -> None:
        for kind, detail in _rescan_here(t):
            out.append(RedexPosition(path, kind, detail))
        for i, c in enumerate(children(t)):
            go(c, path + (i,))

    go(t, ())
    return out


def rescan_step(t: Term, pos: RedexPosition) -> Term:
    sub = subterm_at(t, pos.path)
    if (pos.kind, pos.detail) not in _rescan_here(sub):
        raise NotARedex(f"no {pos.detail} redex at {pos.path}")
    if pos.kind == "beta":
        new = rewrite._beta(sub)
    elif pos.kind == "perm":
        new = rewrite._perm(sub)
    else:
        new = children(sub)[1 if pos.detail == "simp-left" else 2]
    return replace_at(t, pos.path, new)


def rescan_normalize(t: Term, fuel: int = rewrite.DEFAULT_FUEL) -> NormalizeResult:
    steps: list[TraceStep] = []
    while rs := rescan_find_redexes(t):
        if len(steps) >= fuel:
            return NormalizeResult(t, steps, exhausted=True)
        pos = min(rs, key=lambda r: KINDS.index(r.kind))
        t = rescan_step(t, pos)
        steps.append(TraceStep(pos, t))
    return NormalizeResult(t, steps)
