"""What a derivation denotes and what it expresses.

Two derivations are identical when their end terms share a normal form
(optionally up to duality).  They are synonymous when they run through
the same judgment subjects: the sense of a derivation is the set of
(term, polarity, principal type scheme) triples collected from every
node, with terms taken up to a bijective renaming of all variables, so
the particular letters chosen for hypotheses never matter.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .derivation import Derivation
from .duality import dual_term
from .rewrite import DEFAULT_FUEL, FuelExhausted, NormalizeResult, normalize
from .syntax import Polarity, Term, Var, alpha_eq, binders, children, with_children
from .typecheck import TypeScheme, infer_principal

IDENTICAL = "identical"
IDENTICAL_MODULO_DUALITY = "identical-modulo-duality"
DISTINCT = "distinct"
SYNONYMOUS = "synonymous"
NON_SYNONYMOUS = "non-synonymous"


def denotation(t: Term, fuel: int = DEFAULT_FUEL) -> Term:
    """The normal form of t; FuelExhausted if it is out of reach."""
    r: NormalizeResult = normalize(t, fuel)
    if r.exhausted:
        raise FuelExhausted(r.term, r.steps)
    return r.term


def identity_verdict(
    t: Term, u: Term, modulo_duality: bool = False, fuel: int = DEFAULT_FUEL
) -> str:
    nt, nu = denotation(t, fuel), denotation(u, fuel)
    if alpha_eq(nt, nu):
        return IDENTICAL
    if modulo_duality and alpha_eq(nt, dual_term(nu)):
        return IDENTICAL_MODULO_DUALITY
    return DISTINCT


def identical(
    t: Term, u: Term, modulo_duality: bool = False, fuel: int = DEFAULT_FUEL
) -> bool:
    return identity_verdict(t, u, modulo_duality, fuel) != DISTINCT


def canonical_variable_form(t: Term) -> Term:
    """Rename every variable to a position-determined name.

    Bound names come from the binding site, free names from first use, so
    two terms get the same canonical form exactly when one is the other
    under a bijective polarity-preserving renaming of variables.
    """
    fresh = map("v{}".format, itertools.count())
    free: dict[tuple[str, Polarity], str] = {}

    def go(t: Term, bound: dict[tuple[str, Polarity], str]) -> Term:
        if isinstance(t, Var):
            name = bound.get((t.name, t.pol))
            if name is None:
                name = free.setdefault((t.name, t.pol), next(fresh))
            return Var(name, t.pol)
        new, names = [], []
        for c, b in zip(children(t), binders(t)):
            inner, x = bound, None
            if b is not None:
                x = next(fresh)
                inner = {**bound, b: x}
            new.append(go(c, inner))
            names.append(x)
        return with_children(t, new, names)

    return go(t, {})


@dataclass(frozen=True)
class SenseEntry:
    term: Term  # in canonical variable form
    pol: Polarity
    scheme: TypeScheme


@dataclass(frozen=True)
class SenseDescriptor:
    entries: frozenset[SenseEntry]

    def __len__(self) -> int:
        return len(self.entries)


def sense(d: Derivation) -> SenseDescriptor:
    """Every judgment subject of d with its principal type scheme."""
    entries: set[SenseEntry] = set()

    def visit(node: Derivation) -> None:
        key = canonical_variable_form(node.concl.term)
        if not any(e.term == key and e.pol is node.concl.pol for e in entries):
            scheme = infer_principal(key).scheme
            entries.add(SenseEntry(key, node.concl.pol, scheme))
        for p in node.prems:
            visit(p)

    visit(d)
    return SenseDescriptor(frozenset(entries))


def synonymous(d1: Derivation, d2: Derivation) -> bool:
    return sense(d1) == sense(d2)


def synonymy_verdict(d1: Derivation, d2: Derivation) -> str:
    return SYNONYMOUS if synonymous(d1, d2) else NON_SYNONYMOUS
