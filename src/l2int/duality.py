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

from .derivation import RULE_TABLE, Derivation, Judgment, dual_premises
from .syntax import (
    Abort,
    App,
    Basis,
    Bot,
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
    Top,
    Var,
    _once,
    dual_formula,
)


class InvalidDerivation(Exception):
    pass


def _dualizer(duals: dict[int, Term] | None):
    """dual_term, which given a dict also keeps there the dual of each term
    object it meets, keyed by the object's id, and returns that again when
    it meets the object again; the objects must outlive the dict.  Either
    way it takes one Python frame per nesting level."""

    def dual_term(t: Term) -> Term:
        if duals is not None:
            d = duals.get(id(t))
            if d is not None:
                return d
        match t:
            case Var(name, pol):
                d = Var(name, pol.flip())
            case Top():
                d = Bot()
            case Bot():
                d = Top()
            case Abort(body, pol):
                d = Abort(dual_term(body), pol.flip())
            case Pair(left, right, pol):
                d = Pair(dual_term(left), dual_term(right), pol.flip())
            case Fst(body, pol):
                d = Fst(dual_term(body), pol.flip())
            case Snd(body, pol):
                d = Snd(dual_term(body), pol.flip())
            case Inl(body, pol):
                d = Inl(dual_term(body), pol.flip())
            case Inr(body, pol):
                d = Inr(dual_term(body), pol.flip())
            case Case(scrutinee, b1, s1, b2, s2, pol):
                d = Case(
                    dual_term(scrutinee), b1, dual_term(s1), b2, dual_term(s2), pol.flip()
                )
            case Lam(binder, body, pol):
                d = Lam(binder, dual_term(body), pol.flip())
            case App(fun, arg, pol):
                d = App(dual_term(fun), dual_term(arg), pol.flip())
            case MPair(pos, neg, _):
                d = MPair(dual_term(neg), dual_term(pos), t.pol.flip())
            case Pi1(body):
                d = Pi2(dual_term(body))
            case Pi2(body):
                d = Pi1(dual_term(body))
            case _:
                raise TypeError(f"not a term: {t!r}")
        if duals is not None:
            duals[id(t)] = d
        return d

    return dual_term


dual_term = _dualizer(None)


def dual_basis(b: Basis) -> Basis:
    return _dual_basis(b, dual_formula)


def _dual_basis(b: Basis, formula) -> Basis:
    gamma = tuple((n, formula(f)) for n, f in b.delta)
    delta = tuple((n, formula(f)) for n, f in b.gamma)
    return Basis(gamma, delta)


RULE_DUAL = {name: rule.dual for name, rule in RULE_TABLE.items()}


def dual_derivation(d: Derivation) -> Derivation:
    """The dual of every node.  Each distinct formula and each term object
    is dualized once per call, so formulas and subterms the input shares
    stay shared in the dual."""
    formula = _once(dual_formula)
    term = _dualizer({})

    def node(d: Derivation) -> Derivation:
        rule = RULE_TABLE.get(d.rule)
        if rule is None:
            raise InvalidDerivation(f"unknown rule {d.rule!r}")
        j = d.concl
        concl = Judgment(
            _dual_basis(j.basis, formula), j.pol.flip(), term(j.term), formula(j.type)
        )
        prems = dual_premises(rule, tuple(node(p) for p in d.prems))
        return Derivation(rule.dual, concl, prems)

    return node(d)
