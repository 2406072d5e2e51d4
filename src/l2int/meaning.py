"""What a derivation denotes and what it expresses.

Two derivations are identical when their end terms share a normal form
(optionally up to duality).  They are synonymous when they run through
the same judgment subjects: the sense of a derivation is the set of
(term, polarity, principal type scheme) triples collected from every
node, with terms taken up to a bijective renaming of all variables, so
the particular letters chosen for hypotheses never matter.

`sense` checks that each subject is typable, typing the end term and
each node's subject that is not a child of its parent's (a subterm of a
typable term is typable), and keys each node by one walk that gives its
subject's canonical form and that form's text.  Entries compare and hash
by the text and polarity; a scheme follows from the canonical subject,
so an entry infers it with `typecheck.infer_principal` when it is first
read.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .derivation import Derivation, check_polarities
from .duality import dual_term
from .rewrite import DEFAULT_FUEL, FuelExhausted, NormalizeResult, normalize
from .syntax import (
    PLUS,
    Polarity,
    Term,
    Var,
    alpha_eq,
    binders,
    children,
    restore,
    with_children,
)
from .textio import _format_term, print_term
from .typecheck import TypeScheme, Untypable, infer_principal, infer_typing

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
    return _canonical(t)[0]


def _canonical(t: Term) -> tuple[Term, str]:
    """canonical_variable_form(t) and its text, in one walk: each node's
    text is formatted from its children's as the node is built."""
    fresh = map("v{}".format, itertools.count())
    free: dict[tuple[str, Polarity], str] = {}
    bound: dict[tuple[str, Polarity], str] = {}  # the binders in scope, innermost first

    def go(t: Term) -> tuple[Term, str]:
        if type(t) is Var:
            name = bound.get((t.name, t.pol))
            if name is None:
                name = free.setdefault((t.name, t.pol), next(fresh))
            return Var(name, t.pol), name + ("+" if t.pol is PLUS else "-")
        new, names, texts = [], [], []
        for c, b in zip(children(t), binders(t)):
            if b is None:
                k, s = go(c)
                names.append(None)
            else:
                x = next(fresh)
                outer, bound[b] = bound.get(b), x
                k, s = go(c)
                names.append(x)
                restore(bound, b, outer)
            new.append(k)
            texts.append(s)
        k = with_children(t, new, names)
        return k, _format_term(k, texts)

    return go(t)


@dataclass(frozen=True)
class SenseEntry:
    """Compared and hashed by (text, pol), strings: the term's text stands
    for the term, and the scheme follows from the term.  An entry built
    without a scheme infers it when `scheme` is first read, and keeps it."""

    term: Term = field(compare=False)  # in canonical variable form
    pol: Polarity
    given: TypeScheme | None = field(default=None, compare=False, repr=False)
    text: str | None = field(default=None, repr=False)  # printed from term where not given

    def __post_init__(self) -> None:
        if self.text is None:
            object.__setattr__(self, "text", print_term(self.term))

    @property
    def scheme(self) -> TypeScheme:
        if self.given is None:
            object.__setattr__(self, "given", infer_principal(self.term).scheme)
        return self.given


@dataclass(frozen=True)
class SenseDescriptor:
    entries: frozenset[SenseEntry]

    def __len__(self) -> int:
        return len(self.entries)


def sense(d: Derivation) -> SenseDescriptor:
    """Every judgment subject of d, each with the principal type scheme it
    infers when read.  In preorder, each node's subject that is not a
    child of its parent's is typed, so that the first one without a
    principal typing raises its error; the end term is the first."""
    entries: dict[tuple[str, Polarity], SenseEntry] = {}  # by canonical subject, as text
    todo: list[tuple[Derivation, tuple[Term, ...]]] = [(d, ())]  # each node with its parent's children
    while todo:
        node, above = todo.pop()
        t, pol = node.concl.term, node.concl.pol
        if not any(t is c for c in above):
            for v in check_polarities(t):
                raise Untypable(v.message, v.path)
            infer_typing(t)
        key, text = _canonical(t)
        if (text, pol) not in entries:
            entries[text, pol] = SenseEntry(key, pol, None, text)
        kids = children(t)
        todo.extend((p, kids) for p in reversed(node.prems))
    return SenseDescriptor(frozenset(entries.values()))


def synonymous(d1: Derivation, d2: Derivation) -> bool:
    return sense(d1) == sense(d2)


def synonymy_verdict(d1: Derivation, d2: Derivation) -> str:
    return SYNONYMOUS if synonymous(d1, d2) else NON_SYNONYMOUS
