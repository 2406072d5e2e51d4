"""What a derivation denotes and what it expresses.

Two derivations are identical when their end terms share a normal form
(optionally up to duality).  They are synonymous when they run through
the same judgment subjects: the sense of a derivation is the set of
(term, polarity, principal type scheme) triples collected from every
node, with terms taken up to a bijective renaming of all variables, so
the particular letters chosen for hypotheses never matter.

`sense` types every subterm of the end term in one bottom-up pass,
`typecheck.infer_typing` given an `out` dict, which gives each subterm
its own principal typing (its type and its free variables' formulas); a
node's scheme is that typing renamed as `typecheck.infer_principal`
renames, with the free variables named as in the node's canonical form.
One walk gives a node's canonical form and its text: the text keys the
entry, which compares and hashes by it, and only a new entry gets a
scheme.
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
from .typecheck import TypeScheme, Typing, Untypable, infer_principal, infer_typing, principal_scheme

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
    return _canonical(t, {})[0]


def _canonical(t: Term, free: dict[tuple[str, Polarity], str]) -> tuple[Term, str]:
    """canonical_variable_form(t) and its text, in one walk: each node's
    text is formatted from its children's as the node is built.  free gets
    the name each free variable of t is renamed to."""
    fresh = map("v{}".format, itertools.count())
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
    for the term, and the scheme follows from the term."""

    term: Term = field(compare=False)  # in canonical variable form
    pol: Polarity
    scheme: TypeScheme = field(compare=False)
    text: str | None = field(default=None, repr=False)  # printed from term where not given

    def __post_init__(self) -> None:
        if self.text is None:
            object.__setattr__(self, "text", print_term(self.term))

    def __hash__(self) -> int:
        return hash((self.text, self.pol))


@dataclass(frozen=True)
class SenseDescriptor:
    entries: frozenset[SenseEntry]

    def __len__(self) -> int:
        return len(self.entries)


def _preorder(d: Derivation):
    todo = [d]
    while todo:
        node = todo.pop()
        todo.extend(reversed(node.prems))
        yield node


def sense(d: Derivation) -> SenseDescriptor:
    """Every judgment subject of d with its principal type scheme.

    The schemes come from one pass over the end term (and one over each
    node's term that is not a subterm object of a term typed before) that
    types all its subterms; each node's scheme is its subject's typing
    with the free variables named as in its canonical form.  If a pass
    fails, each node's subject is inferred on its own, in order, so that
    the first one without a principal typing raises its error."""
    typings: dict[int, Typing] = {}
    entries: dict[tuple[str, Polarity], SenseEntry] = {}  # by canonical subject, as text
    try:
        for node in _preorder(d):
            t, pol = node.concl.term, node.concl.pol
            if id(t) not in typings:
                for v in check_polarities(t):
                    raise Untypable(v.message, v.path)
                infer_typing(t, typings)
            names: dict[tuple[str, Polarity], str] = {}
            key, text = _canonical(t, names)
            if (text, pol) not in entries:
                ty, free = typings[id(t)]
                renamed = {(names[v], v[1]): f for v, f in free.items()}
                entries[text, pol] = SenseEntry(key, pol, principal_scheme(ty, renamed), text)
    except Exception:  # whatever failed, the former path decides the error
        for node in _preorder(d):
            infer_principal(canonical_variable_form(node.concl.term))
        raise
    return SenseDescriptor(frozenset(entries.values()))


def synonymous(d1: Derivation, d2: Derivation) -> bool:
    return sense(d1) == sense(d2)


def synonymy_verdict(d1: Derivation, d2: Derivation) -> str:
    return SYNONYMOUS if synonymous(d1, d2) else NON_SYNONYMOUS
