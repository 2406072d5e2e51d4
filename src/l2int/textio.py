"""Concrete syntax: parsing and printing of formulas, terms, derivations.

Formula grammar, loosest to tightest: -> and -< bind loosest and may not be
mixed without parentheses (-> associates right, -< left), then |, then &.
Term syntax is fully parenthesized by constructor, so terms round-trip
exactly; neither printer ever renames a variable.

Derivations travel as JSON trees: {"rule", "concl", "prems"} with formulas
and terms embedded as strings in this module's syntax.  A load parses each
distinct string once and shares the result between the nodes that carry it,
and a premise whose term string is its parent's subterm gets that subterm
object without a parse.  A dump writes the JSON text itself, byte for byte
what `json.dumps` makes of the tree, and prints each formula object and
each term object once: a premise's term is its parent's subterm, so its
text is known by then.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from json.encoder import encode_basestring_ascii

from .syntax import (
    PLUS,
    MINUS,
    And,
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
    App,
    Abort,
    Pair,
    Pi1,
    Pi2,
    Polarity,
    Snd,
    Term,
    Top,
    Var,
    Verum,
    _UNBOUND,
    _once,
    binders,
    build,
    children,
    subterm_at,
)
from .derivation import Derivation, Judgment, check_polarities


@dataclass(frozen=True)
class SourceSpan:
    start: int
    end: int
    line: int
    column: int


class ParseError(Exception):
    def __init__(self, message: str, span: SourceSpan, expected: frozenset[str] = frozenset()):
        super().__init__(message)
        self.message = message
        self.span = span
        self.expected = expected


class PolarityError(Exception):
    """A parsed term violates the polarity discipline."""

    def __init__(self, message: str, span: SourceSpan):
        super().__init__(message)
        self.message = message
        self.span = span


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    span: SourceSpan


# The constructors written as a keyword, a polarity and their children in
# parentheses, separated by commas.
_KEYWORD_CTORS = {
    "abort": Abort, "fst": Fst, "snd": Snd, "inl": Inl, "inr": Inr, "app": App, "p1": Pi1, "p2": Pi2,
}
_CTOR_KEYWORDS = {cls: word for word, cls in _KEYWORD_CTORS.items()}
_TERM_KEYWORDS = {"top", "bot", "case", *_KEYWORD_CTORS}


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
                toks.append(_Token(op, op, SourceSpan(i, i + 2, line, col)))
                i += 2
                col += 2
                break
        else:
            if ch.islower() and ch.isalpha():
                j = i
                while j < len(src) and (src[j].isalnum() or src[j] == "_"):
                    j += 1
                toks.append(_Token("ident", src[i:j], SourceSpan(i, j, line, col)))
                col += j - i
                i = j
            elif ch in singles:
                toks.append(_Token(ch, ch, SourceSpan(i, i + 1, line, col)))
                i += 1
                col += 1
            else:
                raise ParseError(f"unexpected character {ch!r}", SourceSpan(i, i + 1, line, col))
    toks.append(_Token("eof", "", SourceSpan(len(src), len(src), line, col)))
    return toks


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.toks = tokens
        self.pos = 0

    def peek(self, ahead: int = 0) -> _Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

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


# ---------------------------------------------------------------- formulas


def _too_deep(p: _Parser) -> ParseError:
    """What a parse reports when the input nests deeper than Python's
    recursion limit lets the recursive descent follow."""
    return ParseError("nested too deeply", p.peek().span)


def parse_formula(src: str) -> Formula:
    p = _Parser(_lex(src, ("->", "-<"), "&|()"))
    try:
        f = _formula(p)
    except RecursionError as e:
        raise _too_deep(p) from e
    if p.peek().kind != "eof":
        p.fail(f"unexpected {p.peek().text!r} after formula")
    return f


def _formula(p: _Parser) -> Formula:
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


def _disjunct(p: _Parser) -> Formula:
    f = _conjunct(p)
    while p.peek().kind == "|":
        p.next()
        f = Or(f, _conjunct(p))
    return f


def _conjunct(p: _Parser) -> Formula:
    f = _atomic(p)
    while p.peek().kind == "&":
        p.next()
        f = And(f, _atomic(p))
    return f


def _atomic(p: _Parser) -> Formula:
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


_ATOMIC_LEVEL = 3


def _formula_level(f: Formula) -> int:
    match f:
        case Imp() | CoImp():
            return 0
        case Or():
            return 1
        case And():
            return 2
        case _:
            return _ATOMIC_LEVEL


_INFIX = {And: "&", Or: "|", Imp: "->", CoImp: "-<"}


def print_formula(f: Formula) -> str:
    """f's text with the fewest parentheses.  It takes one frame per
    level of f, so it prints as deep a formula as the parser reads."""
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
            bare = _formula_level(a) >= 2, _formula_level(b) >= 3
        case Or(a, b):
            bare = _formula_level(a) >= 1, _formula_level(b) >= 2
        case Imp(a, b):
            bare = _formula_level(a) >= 1, isinstance(b, Imp) or _formula_level(b) >= 1
        case CoImp(a, b):
            bare = isinstance(a, CoImp) or _formula_level(a) >= 1, _formula_level(b) >= 1
        case _:
            raise TypeError(f"not a formula: {f!r}")
    left, right = print_formula(f.left), print_formula(f.right)
    if not bare[0]:
        left = f"({left})"
    if not bare[1]:
        right = f"({right})"
    return f"{left} {_INFIX[type(f)]} {right}"


# ------------------------------------------------------------------- terms


def parse_term(src: str) -> Term:
    return _parse_term(src, {})


def _parse_term(src: str, spans: dict[int, SourceSpan]) -> Term:
    """parse_term, recording in spans where each subterm of the result lies
    in src, keyed by the subterm's id; a subterm in grouping parentheses
    gets the span that includes them."""
    p = _Parser(_lex(src, (), "()<>{},.|\\+-"))
    try:
        t = _term(p, spans)
        if p.peek().kind != "eof":
            p.fail(f"unexpected {p.peek().text!r} after term")
        violations = check_polarities(t)
    except RecursionError as e:
        raise _too_deep(p) from e
    if violations:
        v = violations[0]
        raise PolarityError(v.message, spans[id(subterm_at(t, v.path))])
    return t


def _pol(p: _Parser) -> Polarity:
    t = p.peek()
    if t.kind == "+":
        p.next()
        return PLUS
    if t.kind == "-":
        p.next()
        return MINUS
    p.fail(f"expected '+' or '-', found {t.text or 'end of input'!r}", frozenset({"+", "-"}))


def _binder(p: _Parser) -> tuple[str, Polarity]:
    t = p.expect("ident")
    if t.text in _TERM_KEYWORDS:
        raise ParseError(f"{t.text!r} is reserved and cannot bind", t.span)
    return t.text, _pol(p)


def _term(p: _Parser, spans: dict[int, SourceSpan]) -> Term:
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
        cls = _KEYWORD_CTORS.get(word)
        if cls is not None:
            pol = _pol(p)
            p.expect("(")
            kids = [_term(p, spans)]
            for _ in _UNBOUND[cls][1:]:  # each further child
                p.expect(",")
                kids.append(_term(p, spans))
            p.expect(")")
            fixed = getattr(cls, "pol", pol)  # p1 and p2 fix their polarity
            if pol is not fixed:
                raise ParseError(f"{word} is always {fixed}", tok.span)
            return record(build(cls, kids, pol))
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


def print_term(t: Term, memo: dict[int, str] | None = None) -> str:
    """t's text.  memo, where given, maps the id of each term object
    printed so far to its text, and gets the text of every subterm of t:
    a caller printing terms that share subterm objects prints each object
    once.  The objects must outlive memo."""
    if memo is not None:
        s = memo.get(id(t))
        if s is not None:
            return s
    # Formatting the polarity enum would cost three calls.
    sign = "+" if getattr(t, "pol", None) is PLUS else "-"
    word = _CTOR_KEYWORDS.get(type(t))
    if word is not None:
        kids = list(map(print_term, children(t), repeat(memo)))
        s = f"{word}{sign}({', '.join(kids)})"
    else:
        match t:
            case Var(name):
                s = name + sign
            case Top():
                s = "top+"
            case Bot():
                s = "bot-"
            case Pair(left, right):
                s = f"<{print_term(left, memo)}, {print_term(right, memo)}>{sign}"
            case Case(scrutinee, _, s1, _, s2):
                _, (b1, q), (b2, _) = binders(t)
                q = "+" if q is PLUS else "-"
                s = (
                    f"case {print_term(scrutinee, memo)} "
                    f"{{{b1}{q}. {print_term(s1, memo)} | {b2}{q}. {print_term(s2, memo)}}}{sign}"
                )
            case Lam(_, body):
                ((x, q),) = binders(t)
                q = "+" if q is PLUS else "-"
                s = f"(\\{x}{q}. {print_term(body, memo)}){sign}"
            case MPair(pos, neg):
                s = f"{{{print_term(pos, memo)}, {print_term(neg, memo)}}}{sign}"
            case _:
                raise TypeError(f"not a term: {t!r}")
    if memo is not None:
        memo[id(t)] = s
    return s


# ------------------------------------------------------------- derivations


def print_basis(b: Basis) -> str:
    gamma = ", ".join(f"{n}+: {print_formula(f)}" for n, f in b.gamma)
    delta = ", ".join(f"{n}-: {print_formula(f)}" for n, f in b.delta)
    sep = "; " if delta else ";"
    return f"({gamma}{sep}{delta})"


def derivation_to_json(d: Derivation, indent: int | None = 2) -> str:
    """d as its {"rule", "concl", "prems"} JSON tree: byte for byte what
    `json.dumps(..., indent=indent)` makes of that tree, written directly.
    Each string is escaped by the encoder `json.dumps` uses, and each
    formula object and each term object is printed once: a premise's term
    is its parent's subterm, so its text is already known.  Both memos are
    keyed by id, as hashing a deep formula takes two frames per level."""
    quote = encode_basestring_ascii
    formulas: dict[int, str] = {}
    terms: dict[int, str] = {}

    def formula(f: Formula) -> str:
        s = formulas.get(id(f))
        if s is None:
            s = formulas[id(f)] = quote(print_formula(f))
        return s

    # Per depth of a container's items: what opens its first item, what
    # separates two items and what goes before its closing bracket.
    layout: list[tuple[str, str, str]] = []

    def at(depth: int) -> tuple[str, str, str]:
        while len(layout) <= depth:
            if indent is None:
                layout.append(("", ", ", ""))
            else:
                pad = "\n" + " " * (indent * len(layout))
                layout.append((pad, "," + pad, pad[: len(pad) - indent]))
        return layout[depth]

    def basis(entries, depth: int) -> str:
        if not entries:
            return "[]"
        (o, s, c), (po, ps, pc) = at(depth), at(depth + 1)
        pairs = s.join(f"[{po}{quote(n)}{ps}{formula(f)}{pc}]" for n, f in entries)
        return f"[{o}{pairs}{c}]"

    out: list[str] = []

    def node(d: Derivation, depth: int) -> None:
        j = d.concl
        (o, s, c), (co, cs, cc) = at(depth), at(depth + 1)
        out.append(
            f'{{{o}"rule": {quote(d.rule)}{s}"concl": {{{co}'
            f'"gamma": {basis(j.basis.gamma, depth + 2)}{cs}'
            f'"delta": {basis(j.basis.delta, depth + 2)}{cs}'
            f'"pol": "{j.pol}"{cs}"term": {quote(print_term(j.term, terms))}{cs}'
            f'"type": {formula(j.type)}{cc}}}{s}"prems": '
        )
        if d.prems:
            out.append("[" + co)
            for i, p in enumerate(d.prems):
                if i:
                    out.append(cs)
                node(p, depth + 2)
            out.append(cc + "]")
        else:
            out.append("[]")
        out.append(c + "}")

    node(d, 1)
    return "".join(out)


class DerivationFormatError(Exception):
    """The JSON is structurally not a derivation."""


def _is_basis(entries) -> bool:
    return isinstance(entries, list) and all(
        isinstance(e, list) and len(e) == 2 and isinstance(e[0], str) and isinstance(e[1], str)
        for e in entries
    )


def derivation_from_obj(obj) -> Derivation:
    """The derivation a JSON object describes.  Each distinct formula or
    term string is parsed once per call and the result shared by every
    node that carries it.  A premise whose term string is the text of one
    of its parent term's children gets that child object, and its string is
    not parsed at all; so a valid derivation's term is parsed once, at the
    root, and every premise's term is its parent's subterm."""
    formula = _once(parse_formula)
    spans: dict[int, SourceSpan] = {}  # every parsed subterm's place in its source
    term = _once(partial(_parse_term, spans=spans))

    def subject(src: str, parent: tuple[Term, str] | None) -> tuple[Term, str]:
        """The term src stands for, and the string its spans refer to."""
        if parent is not None:
            parent_term, parent_src = parent
            for child in children(parent_term):
                span = spans[id(child)]
                if span.end - span.start == len(src) and parent_src.startswith(src, span.start):
                    return child, parent_src
        return term(src), src

    def judgment(obj, parent: tuple[Term, str] | None) -> tuple[Judgment, str]:
        if not isinstance(obj, dict):
            raise DerivationFormatError("judgment must be an object")
        for key in ("gamma", "delta"):
            if not _is_basis(obj.get(key)):
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

    def node(obj, parent: tuple[Term, str] | None = None) -> Derivation:
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


def derivation_from_json(text: str) -> Derivation:
    try:
        return derivation_from_obj(json.loads(text))
    except json.JSONDecodeError as e:
        raise DerivationFormatError(f"not valid JSON: {e}") from e
    except RecursionError as e:
        raise DerivationFormatError("nested too deeply") from e
