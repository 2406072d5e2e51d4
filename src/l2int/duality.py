"""The duality transformation.

Proofs and refutations trade places: polarities flip, top and bot swap,
conjunction and disjunction swap, and the two arrows swap with their
sides reversed.  On terms the map is pointwise except that the components
of a mixed pair swap (the plus part of the image is the dual of the minus
part of the original) and the two projections trade places.  Variable
names are kept, so applying the map twice gives back the original term
on the nose, not just up to alpha.
"""

from __future__ import annotations

from .derivation import Derivation, Judgment
from .syntax import (
    Abort,
    And,
    App,
    Atom,
    Basis,
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
    MetaVar,
    MPair,
    Or,
    Pair,
    Pi1,
    Pi2,
    Snd,
    Term,
    Top,
    Var,
    Verum,
    _once,
)


class InvalidDerivation(Exception):
    pass


def dual_formula(f: Formula) -> Formula:
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


def dual_term(t: Term) -> Term:
    match t:
        case Var(name, pol):
            return Var(name, pol.flip())
        case Top():
            return Bot()
        case Bot():
            return Top()
        case Abort(body, pol):
            return Abort(dual_term(body), pol.flip())
        case Pair(left, right, pol):
            return Pair(dual_term(left), dual_term(right), pol.flip())
        case Fst(body, pol):
            return Fst(dual_term(body), pol.flip())
        case Snd(body, pol):
            return Snd(dual_term(body), pol.flip())
        case Inl(body, pol):
            return Inl(dual_term(body), pol.flip())
        case Inr(body, pol):
            return Inr(dual_term(body), pol.flip())
        case Case(scrutinee, b1, s1, b2, s2, pol):
            return Case(
                dual_term(scrutinee), b1, dual_term(s1), b2, dual_term(s2), pol.flip()
            )
        case Lam(binder, body, pol):
            return Lam(binder, dual_term(body), pol.flip())
        case App(fun, arg, pol):
            return App(dual_term(fun), dual_term(arg), pol.flip())
        case MPair(pos, neg, _):
            return MPair(dual_term(neg), dual_term(pos), t.pol.flip())
        case Pi1(body):
            return Pi2(dual_term(body))
        case Pi2(body):
            return Pi1(dual_term(body))
    raise TypeError(f"not a term: {t!r}")


def dual_basis(b: Basis) -> Basis:
    return _dual_basis(b, dual_formula)


def _dual_basis(b: Basis, formula) -> Basis:
    gamma = tuple((n, formula(f)) for n, f in b.delta)
    delta = tuple((n, formula(f)) for n, f in b.gamma)
    return Basis(gamma, delta)


RULE_DUAL = {
    "Hyp+": "Hyp-",
    "TopI": "BotI_d",
    "BotE": "TopE_d",
    "AndI": "OrI_d",
    "AndE1": "OrE_d1",
    "AndE2": "OrE_d2",
    "AndI_d1": "OrI1",
    "AndI_d2": "OrI2",
    "AndE_d": "OrE",
    "ImpI": "CoImpI_d",
    "ImpE": "CoImpE_d",
    "ImpI_d": "CoImpI",
    "ImpE_d1": "CoImpE2",
    "ImpE_d2": "CoImpE1",
}
RULE_DUAL.update({v: k for k, v in RULE_DUAL.items()})

# The mixed-pair components swap under the term map, so the two rules
# that introduce a mixed pair swap their premises too.
_SWAPPING_RULES = ("CoImpI", "ImpI_d")


def dual_derivation(d: Derivation) -> Derivation:
    """The dual of every node.  Each distinct formula is dualized once per
    call, so formulas the input shares stay shared in the dual."""
    formula = _once(dual_formula)

    def node(d: Derivation) -> Derivation:
        if d.rule not in RULE_DUAL:
            raise InvalidDerivation(f"unknown rule {d.rule!r}")
        j = d.concl
        concl = Judgment(
            _dual_basis(j.basis, formula), j.pol.flip(), dual_term(j.term), formula(j.type)
        )
        prems = tuple(node(p) for p in d.prems)
        if d.rule in _SWAPPING_RULES:
            prems = prems[::-1]
        return Derivation(RULE_DUAL[d.rule], concl, prems)

    return node(d)
