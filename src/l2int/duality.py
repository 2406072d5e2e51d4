"""The duality transformation.

Proofs and refutations trade places: polarities flip, top and bot swap,
conjunction and disjunction swap, and the two arrows swap with their
sides reversed.  On terms the map is pointwise except that the components
of a mixed pair swap (the plus part of the image is the dual of the minus
part of the original) and the two projections trade places.  Variable
names are kept, so applying the map twice gives back the original term
on the nose, not just up to alpha.  `dual_term` rebuilds every constructor
alike, with `syntax.build`: it reads the dual constructor from
`derivation._DUAL_CTOR` and the order of the dual's children from
`derivation.dual_premises`, the statements the rule table's dual rows are
computed from.  `dual_derivation` dualizes each formula object, each term
object and each basis object once per call, a formula part by part: a
JSON load and `check` share formulas and bases between nodes, and the
dual keeps them shared.  Formulas keep no hash; the memos are keyed by id.
"""

from __future__ import annotations

from .derivation import _DUAL_CTOR, RULE_TABLE, Derivation, Judgment, dual_premises
from .syntax import Basis, Formula, Term, Var, build, children, dual_formula, parts_with


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
        cls = type(t)
        if cls is Var:
            d = Var(t.name, t.pol.flip())
        else:
            kids = dual_premises(cls, tuple(map(dual_term, children(t))))
            d = build(_DUAL_CTOR.get(cls, cls), parts_with(t, kids), t.pol.flip())
        if duals is not None:
            duals[id(t)] = d
        return d

    return dual_term


dual_term = _dualizer(None)


def dual_basis(b: Basis, memo: dict[int, Formula] | None = None) -> Basis:
    """b's sides swapped and each formula dualized, with memo as in
    `dual_formula`."""
    gamma = tuple((n, dual_formula(f, memo)) for n, f in b.delta)
    delta = tuple((n, dual_formula(f, memo)) for n, f in b.gamma)
    return Basis(gamma, delta)


RULE_DUAL = {name: rule.dual for name, rule in RULE_TABLE.items()}


def dual_derivation(d: Derivation) -> Derivation:
    """The dual of every node.  Each formula object, each term object and
    each basis object is dualized once per call, a formula part by part, so
    formulas and their parts, subterms and bases the input shares stay
    shared in the dual."""
    formulas: dict[int, Formula] = {}  # all three memos by id: the input holds each object for the call
    term = _dualizer({})
    bases: dict[int, Basis] = {}

    def basis(b: Basis) -> Basis:
        got = bases.get(id(b))
        if got is None:
            got = bases[id(b)] = dual_basis(b, formulas)
        return got

    def node(d: Derivation) -> Derivation:
        rule = RULE_TABLE.get(d.rule)
        if rule is None:
            raise InvalidDerivation(f"unknown rule {d.rule!r}")
        j = d.concl
        concl = Judgment(basis(j.basis), j.pol.flip(), term(j.term), dual_formula(j.type, formulas))
        prems = dual_premises(rule.ctor, tuple(map(node, d.prems)))
        return Derivation(rule.dual, concl, prems)

    return node(d)
