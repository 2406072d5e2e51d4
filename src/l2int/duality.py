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
computed from.  It takes an optional memo keyed by id, as `dual_formula`
and `textio.print_term` do.  `dual_derivation` passes its three memos
down as arguments, so no walk is a closure and a call leaves no reference
cycle, and it dualizes each formula object, each term object and each
basis object once per call, a formula part by part: a JSON load and
`check` share formulas and bases between nodes, and the dual keeps them
shared.  Formulas keep no hash; the memos are keyed by id.
"""

from __future__ import annotations

from itertools import repeat

from .derivation import _DUAL_CTOR, RULE_TABLE, Derivation, Judgment, dual_premises
from .syntax import Basis, Formula, Term, Var, build, children, dual_formula, parts_with


class InvalidDerivation(Exception):
    pass


def dual_term(t: Term, memo: dict[int, Term] | None = None) -> Term:
    """The dual of t.  memo, where given, maps the id of each term object
    dualized so far to its dual, and gets the dual of every subterm of t,
    as in `print_term`: a caller dualizing terms that share subterm objects
    dualizes each object once.  The objects must outlive memo.  It takes
    one Python frame per nesting level."""
    if memo is not None:
        d = memo.get(id(t))
        if d is not None:
            return d
    cls = type(t)
    if cls is Var:
        d = Var(t.name, t.pol.flip())
    else:
        # Without a memo, no `repeat(None)`: it costs a call a few percent.
        kids = map(dual_term, children(t)) if memo is None else map(dual_term, children(t), repeat(memo))
        d = build(_DUAL_CTOR.get(cls, cls), parts_with(t, dual_premises(cls, tuple(kids))), t.pol.flip())
    if memo is not None:
        memo[id(t)] = d
    return d


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
    return _dual_node(d, {}, {}, {})


def _dual_node(d: Derivation, formulas: dict, terms: dict, bases: dict) -> Derivation:
    """The dual of d, with formulas, terms and bases the call's memos, each
    keyed by id: the input holds each object for the call."""
    rule = RULE_TABLE.get(d.rule)
    if rule is None:
        raise InvalidDerivation(f"unknown rule {d.rule!r}")
    j = d.concl
    basis = bases.get(id(j.basis))
    if basis is None:
        basis = bases[id(j.basis)] = dual_basis(j.basis, formulas)
    concl = Judgment(basis, j.pol.flip(), dual_term(j.term, terms), dual_formula(j.type, formulas))
    prems = map(_dual_node, d.prems, repeat(formulas), repeat(terms), repeat(bases))
    return Derivation(rule.dual, concl, dual_premises(rule.ctor, tuple(prems)))
