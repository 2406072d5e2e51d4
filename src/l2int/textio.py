"""Concrete syntax: parsing and printing of formulas, terms, derivations.

Formula grammar, loosest to tightest: -> and -< bind loosest and may not be
mixed without parentheses (-> associates right, -< left), then |, then &.
Term syntax is fully parenthesized by constructor, so terms round-trip
exactly; neither printer ever renames a variable.  Two tables state the
syntax once: `_INFIX` each connective's symbol, level and grouping, and
`_SYNTAX` each term constructor's template.  The parsers and the printers
are read off them, and so is each lexer: one regular expression, read with
`finditer`.  Tokens and parsed subterms keep offsets into the source; a
line and column are worked out only for an error's `SourceSpan`.

Derivations travel as JSON trees: {"rule", "concl", "prems"} with formulas
and terms embedded as strings in this module's syntax.  A load parses each
distinct string once and shares the result between the nodes that carry it,
and a premise whose term string is its parent's subterm gets that subterm
object without a parse.  Formulas are shared by structure: the load makes
every formula through one dict, an atom or constant keyed by its text and
a connective by its class and its sides' ids, so every equal formula of a
load is one object, made once, however it is written, and no subformula
text is recorded.  Formulas keep no hash: the load's keys are text and
ids, and `duality.dual_derivation` dualizes each formula object once,
part by part.  Each distinct basis is made once per load.  A dump
writes the JSON text itself, byte for byte what `json.dumps` makes of the
tree, and prints each formula object and each term object once: a
premise's term is its parent's subterm, so its text is known by then.
A load keeps its memos in a `_Load` made per call, and a dump in a
`_Dump`: no walk is a closure, so a call leaves no reference cycle.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import repeat
from json.encoder import encode_basestring_ascii as _quote
from typing import NamedTuple

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


def _span(src: str, start: int, end: int) -> SourceSpan:
    """The span of src from start to end.  Its line is the number of
    newlines before start, and its column the code points since the last."""
    return SourceSpan(start, end, src.count("\n", 0, start), start - src.rfind("\n", 0, start) - 1)


class _Token(NamedTuple):
    kind: str
    text: str
    start: int
    end: int


# ----------------------------------------------------------------- grammar

# Each connective's symbol, its level (a higher level binds tighter) and
# whether it groups to the right.  The two arrows share a level and may not
# be mixed without parentheses.
_INFIX = {Imp: ("->", 0, True), CoImp: ("-<", 0, False), Or: ("|", 1, False), And: ("&", 2, False)}
_ATOMIC = 3  # the level of an atom, a constant or a formula in parentheses
_LEVEL = {cls: level for cls, (_, level, _) in _INFIX.items()}
_BY_SYMBOL = {sym: (cls, level, right) for cls, (sym, level, right) in _INFIX.items()}
_NO_OP = None, None, None

# The constructors written as a keyword, a polarity and their children in
# parentheses, separated by commas.
_KEYWORD_CTORS = {
    "abort": Abort, "fst": Fst, "snd": Snd, "inl": Inl, "inr": Inr, "app": App, "p1": Pi1, "p2": Pi2,
}

# Each term constructor's text, its fields in order: @ is a child, ^ a
# binder's name and polarity, ± the term's polarity, and the rest is
# literal.  A variable is its name and polarity.  The parser picks a
# template by a term's first token and reads the rest of it; the printer
# formats it.
_SYNTAX = {
    Top: "top+",
    Bot: "bot-",
    Pair: "<@, @>±",
    MPair: "{@, @}±",
    Case: "case @ {^. @ | ^. @}±",
    Lam: "(\\^. @)±",
    **{cls: f"{word}±({', '.join('@' * len(_UNBOUND[cls]))})" for word, cls in _KEYWORD_CTORS.items()},
}
_PIECES = {cls: re.findall(r"\w+|\S", s) for cls, s in _SYNTAX.items()}
_LEADS = {pieces[0]: (cls, pieces[1:]) for cls, pieces in _PIECES.items()}
_TERM_KEYWORDS = {lead for lead in _LEADS if lead.isidentifier()}
# Per constructor: its `str.format` string, with the polarity as the
# keyword argument s, and whether it binds.
_FORMATS = {
    cls: (s.replace("{", "{{").replace("}", "}}").replace("@", "{}").replace("^", "{}{}").replace("±", "{s}"),
          "^" in s)
    for cls, s in _SYNTAX.items()
}
# What the parser says of a binder not at the polarity `binders` gives it.
_BINDER_ERRORS = {
    Lam: "lambda binder is {given} but the lambda is {want}",
    Case: "case binders must match the scrutinee's polarity ({want})",
}


def _lexer(ops) -> re.Pattern:
    """The lexer for a syntax whose symbols are ops: a match is a symbol
    (group 1, longest first), a word (2) or any other character (3), and
    `finditer` skips the whitespace between.  In `re`, `\\w` is exactly
    `str.isalnum()` or `_`, and `\\S` exactly not `str.isspace()`."""
    symbols = "|".join(map(re.escape, sorted(ops, key=len, reverse=True)))
    return re.compile(rf"({symbols})|(\w+)|(\S)")


_FORMULA_TOKENS = _lexer([*_BY_SYMBOL, "(", ")"])
_TERM_TOKENS = _lexer({c for ps in _PIECES.values() for c in ps if not c.isalnum()} - {"@", "^", "±"} | {"+", "-"})


def _lex(src: str, lexer: re.Pattern) -> list[_Token]:
    """src's tokens, then an eof token.  A word is an identifier if it
    starts with a lowercase letter; any other word, or a character that
    is no symbol, is an error."""
    toks = []
    for m in lexer.finditer(src):
        group, text, start = m.lastindex, m.group(), m.start()
        if group == 1:
            toks.append(_Token(text, text, start, m.end()))
        elif group == 2 and text[0].islower() and text[0].isalpha():
            toks.append(_Token("ident", text, start, m.end()))
        else:
            raise ParseError(f"unexpected character {text[0]!r}", _span(src, start, start + 1))
    toks.append(_Token("eof", "", len(src), len(src)))
    return toks


class _Parser:
    """A position in src's tokens, which end with one eof token that `next`
    never moves past, so `toks[pos]` is always a token."""

    def __init__(self, src: str, tokens: list[_Token]):
        self.src = src
        self.toks = tokens
        self.pos = 0

    def error(self, message: str, tok: _Token | None = None, expected: frozenset[str] = frozenset()) -> ParseError:
        """A ParseError at tok, by default the current token."""
        t = self.toks[self.pos] if tok is None else tok
        return ParseError(message, _span(self.src, t.start, t.end), expected)

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
            raise self.error(f"expected {kind!r}, found {t.text or 'end of input'!r}", t, frozenset({kind}))
        return self.next()


# ---------------------------------------------------------------- formulas


def parse_formula(src: str) -> Formula:
    """The formula src stands for."""
    return _shared_formula(src, {})


def _shared_formula(src: str, made: dict) -> Formula:
    """The formula src stands for, with every part taken from made (see
    `_formula`) and the whole kept there under src: strings parsed into
    one dict give one object for equal formulas, and each distinct string
    is parsed once."""
    f = made.get(src)
    if f is not None:
        return f
    p = _Parser(src, _lex(src, _FORMULA_TOKENS))
    try:
        f = _formula(p, made)
    except RecursionError as e:
        raise p.error("nested too deeply") from e
    if p.peek().kind != "eof":
        raise p.error(f"unexpected {p.peek().text!r} after formula")
    made[src] = f
    return f


def _formula(p: _Parser, made: dict, level: int = 0) -> Formula:
    """The formula at p of at least level: operands of the next level up
    joined by this level's connective, or, at the atomic level, an atom, a
    constant or a formula in parentheses.  Each level takes one frame.  The
    next token is read off the token list: a `peek` call at each level
    costs about a tenth of a parse.

    Every formula is taken from made, which holds an atom or a constant
    under its text and a connective under its class and the ids of its
    sides, and made there if it is not yet: since the sides are made the
    same way, equal formulas are one object (hash-consing).  made holds
    the sides, so their ids stay theirs."""
    if level == _ATOMIC:
        t = p.next()
        if t.kind == "ident":
            f = made.get(t.text)
            if f is None:
                f = Falsum() if t.text == "bot" else Verum() if t.text == "top" else Atom(t.text)
                made[t.text] = f
            return f
        if t.kind == "(":
            f = _formula(p, made)
            p.expect(")")
            return f
        found = t.text or "end of input"
        raise p.error(f"expected a formula, found {found!r}", t, frozenset({"ident", "("}))
    f = _formula(p, made, level + 1)
    sym = p.toks[p.pos].kind
    cls, at, rightward = _BY_SYMBOL.get(sym, _NO_OP)
    if at != level:
        return f
    parts = [f]
    while p.toks[p.pos].kind == sym:
        p.pos += 1
        if sym == "->" and p.toks[p.pos].kind == "eof":
            raise p.error("expected a formula after '->'")
        parts.append(_formula(p, made, level + 1))
        nxt = _BY_SYMBOL.get(p.toks[p.pos].kind, _NO_OP)
        if nxt[1] == level and nxt[0] is not cls:
            raise p.error("cannot mix '->' and '-<' without parentheses")
    if rightward:
        parts.reverse()
    f = parts[0]
    for g in parts[1:]:
        left, right = (g, f) if rightward else (f, g)
        key = cls, id(left), id(right)
        f = made.get(key)
        if f is None:
            f = made[key] = cls(left, right)
    return f


def print_formula(f: Formula) -> str:
    """f's text with the fewest parentheses: a side is bare where it binds
    tighter than f, or where it is f's connective on the side that groups.
    It takes one frame per level of f, so it prints as deep a formula as
    the parser reads."""
    op = _INFIX.get(type(f))
    if op is None:
        match f:
            case Atom(name):
                return name
            case Falsum():
                return "bot"
            case Verum():
                return "top"
            case MetaVar(name):
                return f"?{name}"
        raise TypeError(f"not a formula: {f!r}")
    sym, level, rightward = op
    a, b = f.left, f.right
    left, right = print_formula(a), print_formula(b)
    if _LEVEL.get(type(a), _ATOMIC) <= level and (rightward or type(a) is not type(f)):
        left = f"({left})"
    if _LEVEL.get(type(b), _ATOMIC) <= level and not (rightward and type(b) is type(f)):
        right = f"({right})"
    return f"{left} {sym} {right}"


# ------------------------------------------------------------------- terms


def parse_term(src: str) -> Term:
    return _parse_term(src, {})


def _parse_term(src: str, spans: dict[int, tuple[int, int]]) -> Term:
    """parse_term, recording in spans where each subterm of the result lies
    in src, its start and end keyed by the subterm's id; a subterm in
    grouping parentheses gets the span that includes them."""
    p = _Parser(src, _lex(src, _TERM_TOKENS))
    try:
        t = _term(p, spans)
        if p.peek().kind != "eof":
            raise p.error(f"unexpected {p.peek().text!r} after term")
        violations = check_polarities(t)
    except RecursionError as e:
        raise p.error("nested too deeply") from e
    if violations:
        v = violations[0]
        raise PolarityError(v.message, _span(src, *spans[id(subterm_at(t, v.path))]))
    return t


_POLARITIES = {"+": PLUS, "-": MINUS}


def _pol(p: _Parser) -> Polarity:
    pol = _POLARITIES.get(p.toks[p.pos].kind)
    if pol is None:
        found = p.peek().text or "end of input"
        raise p.error(f"expected '+' or '-', found {found!r}", expected=frozenset({"+", "-"}))
    p.pos += 1
    return pol


def _binder(p: _Parser) -> tuple[str, Polarity]:
    t = p.expect("ident")
    if t.text in _TERM_KEYWORDS:
        raise p.error(f"{t.text!r} is reserved and cannot bind", t)
    return t.text, _pol(p)


def _term(p: _Parser, spans: dict[int, tuple[int, int]]) -> Term:
    """The term at p, recording in spans where it lies, first token to
    last.  It takes one frame per level."""
    tok = p.peek()
    lead = _LEADS.get(tok.text)
    if tok.kind == "(" and p.toks[p.pos + 1].kind != "\\":  # grouping; eof follows any "("
        p.pos += 1
        t = _term(p, spans)
        p.expect(")")
    elif lead is None:
        if tok.kind != "ident":
            raise p.error(f"expected a term, found {tok.text or 'end of input'!r}")
        p.pos += 1
        t = Var(tok.text, _pol(p))
    else:
        p.pos += 1
        cls, pieces = lead
        fixed = getattr(cls, "pol", None)
        pol, parts, given = fixed, [], []
        for piece in pieces:
            if piece == "@":
                parts.append(_term(p, spans))
            elif piece == "^":
                name, q = _binder(p)
                parts.append(name)
                given.append(q)
            elif piece == "±":
                pol = _pol(p)
            else:
                p.expect(piece)
        if fixed is not None and pol is not fixed:  # p1 and p2 fix their polarity
            raise p.error(f"{tok.text} is always {fixed}", tok)
        t = build(cls, parts, pol)
        for q, (_, want) in zip(given, filter(None, binders(t))):
            if q is not want:
                raise p.error(_BINDER_ERRORS[cls].format(given=q, want=want), tok)
    spans[id(t)] = tok.start, p.toks[p.pos - 1].end
    return t


def print_term(t: Term, memo: dict[int, str] | None = None) -> str:
    """t's text.  memo, where given, maps the id of each term object
    printed so far to its text, and gets the text of every subterm of t:
    a caller printing terms that share subterm objects prints each object
    once.  The objects must outlive memo."""
    if memo is not None:
        s = memo.get(id(t))
        if s is not None:
            return s
    if type(t) is Var:
        s = t.name + t.pol.sign
    elif type(t) in _FORMATS:
        s = _format_term(t, list(map(print_term, children(t), repeat(memo))))
    else:
        raise TypeError(f"not a term: {t!r}")
    if memo is not None:
        memo[id(t)] = s
    return s


def _format_term(t: Term, kids: list[str]) -> str:
    """The text of t, not a variable, given its children's in order."""
    form, binds = _FORMATS[type(t)]
    if binds:
        args = []
        for kid, b in zip(kids, binders(t)):
            if b is not None:
                args += b[0], b[1].sign
            args.append(kid)
        kids = args
    return form.format(*kids, s=t.pol.sign)


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
    is its parent's subterm, so its text is already known."""
    dump = _Dump(indent)
    dump.node(d, 1)
    return "".join(dump.out)


class _Dump:
    """One dump's state: the text of each formula object and each term
    object printed so far, keyed by id as formulas keep no hash, the
    layout of each depth met so far, and the pieces written."""

    def __init__(self, indent: int | None):
        self.indent = indent
        self.formulas: dict[int, str] = {}
        self.terms: dict[int, str] = {}
        # Per depth of a container's items: what opens its first item, what
        # separates two items and what goes before its closing bracket.
        self.layout: list[tuple[str, str, str]] = []
        self.out: list[str] = []

    def formula(self, f: Formula) -> str:
        s = self.formulas.get(id(f))
        if s is None:
            s = self.formulas[id(f)] = _quote(print_formula(f))
        return s

    def at(self, depth: int) -> tuple[str, str, str]:
        layout, indent = self.layout, self.indent
        while len(layout) <= depth:
            if indent is None:
                layout.append(("", ", ", ""))
            else:
                pad = "\n" + " " * (indent * len(layout))
                layout.append((pad, "," + pad, pad[: len(pad) - indent]))
        return layout[depth]

    def basis(self, entries, depth: int) -> str:
        if not entries:
            return "[]"
        (o, s, c), (po, ps, pc) = self.at(depth), self.at(depth + 1)
        pairs = s.join(f"[{po}{_quote(n)}{ps}{self.formula(f)}{pc}]" for n, f in entries)
        return f"[{o}{pairs}{c}]"

    def node(self, d: Derivation, depth: int) -> None:
        j, out = d.concl, self.out
        (o, s, c), (co, cs, cc) = self.at(depth), self.at(depth + 1)
        out.append(
            f'{{{o}"rule": {_quote(d.rule)}{s}"concl": {{{co}'
            f'"gamma": {self.basis(j.basis.gamma, depth + 2)}{cs}'
            f'"delta": {self.basis(j.basis.delta, depth + 2)}{cs}'
            f'"pol": "{j.pol.sign}"{cs}"term": {_quote(print_term(j.term, self.terms))}{cs}'
            f'"type": {self.formula(j.type)}{cc}}}{s}"prems": '
        )
        if d.prems:
            out.append("[" + co)
            for i, p in enumerate(d.prems):
                if i:
                    out.append(cs)
                self.node(p, depth + 2)
            out.append(cc + "]")
        else:
            out.append("[]")
        out.append(c + "}")


class DerivationFormatError(Exception):
    """The JSON is structurally not a derivation."""


def _is_basis(entries) -> bool:
    return isinstance(entries, list) and all(
        isinstance(e, list) and len(e) == 2 and isinstance(e[0], str) and isinstance(e[1], str)
        for e in entries
    )


def _basis_key(entries) -> tuple | None:
    """The basis memo's key for one side's entries: the items of each, or
    None for an entry that is not a list.  A string "ab" is no list, so it
    cannot pass for ["a", "b"]; a key that equals a validated side's comes
    from equal, so well-formed, entries."""
    if type(entries) is not list:
        return None
    return tuple([tuple(e) if type(e) is list else None for e in entries])


def derivation_from_obj(obj) -> Derivation:
    """The derivation a JSON object describes.  Each distinct formula or
    term string is parsed once per call and the result shared by every
    node that carries it.  All formulas of the call are made through one
    dict (see `_formula`), so equal formulas, however written, are one
    object.  A premise whose term string is the text of one of its parent
    term's children gets that child object, and its string is not parsed
    at all; so a valid derivation's term is parsed once, at the root, and
    every premise's term is its parent's subterm.  Each distinct basis, by
    its gamma and delta entries as given, is made once."""
    return _Load().node(obj)


class _Load:
    """One load's memos: every formula string parsed and every formula
    made, every term string parsed (by text), every parsed subterm's place
    in its source (by id), and every basis made (by its entries)."""

    def __init__(self):
        self.formulas: dict = {}
        self.terms: dict[str, Term] = {}
        self.spans: dict[int, tuple[int, int]] = {}
        self.bases: dict[tuple, Basis] = {}

    def child(self, src: str, parent: tuple[Term, str]) -> tuple[Term, str] | None:
        """The child of parent's term whose text src is, with the string
        its spans refer to, if there is one."""
        parent_term, parent_src = parent
        for t in children(parent_term):
            start, end = self.spans[id(t)]
            if end - start == len(src) and parent_src.startswith(src, start):
                return t, parent_src
        return None

    def node(self, obj, parent: tuple[Term, str] | None = None) -> Derivation:
        formulas, bases = self.formulas, self.bases
        if not isinstance(obj, dict):
            raise DerivationFormatError("derivation must be an object")
        for key in ("rule", "concl", "prems"):
            if key not in obj:
                raise DerivationFormatError(f"derivation node lacks {key!r}")
        if not isinstance(obj["rule"], str):
            raise DerivationFormatError("rule must be a string")
        if not isinstance(obj["prems"], list):
            raise DerivationFormatError("prems must be a list")
        c = obj["concl"]
        if not isinstance(c, dict):
            raise DerivationFormatError("judgment must be an object")
        # A basis made before was validated then: look it up first.
        key = _basis_key(c.get("gamma")), _basis_key(c.get("delta"))
        try:
            basis = bases.get(key)
        except TypeError:  # an unhashable item, so a side is malformed
            basis = None
        if basis is None:
            for side in ("gamma", "delta"):
                if not _is_basis(c.get(side)):
                    raise DerivationFormatError(f"{side} must be a list of [name, formula] string pairs")
        for field in ("pol", "term", "type"):
            if not isinstance(c.get(field), str):
                raise DerivationFormatError(f"{field} must be a string")
        if basis is None:
            gamma = {n: _shared_formula(f, formulas) for n, f in c["gamma"]}
            delta = {n: _shared_formula(f, formulas) for n, f in c["delta"]}
        pol = _POLARITIES.get(c["pol"])
        if pol is None:
            raise DerivationFormatError(f"pol must be '+' or '-', not {c['pol']!r}")
        src = c["term"]
        here = None if parent is None else self.child(src, parent)
        if here is None:  # parsed in node's own frame: a deep root term has little stack above it
            t = self.terms.get(src)
            if t is None:
                t = self.terms[src] = _parse_term(src, self.spans)
            here = t, src
        typ = _shared_formula(c["type"], formulas)
        if basis is None:
            if len(gamma) != len(c["gamma"]) or len(delta) != len(c["delta"]):
                raise DerivationFormatError("duplicate assumption name in basis")
            basis = bases[key] = Basis.make(gamma, delta)
        concl = Judgment(basis, pol, here[0], typ)
        return Derivation(obj["rule"], concl, tuple(map(self.node, obj["prems"], repeat(here))))


def derivation_from_json(text: str) -> Derivation:
    try:
        return derivation_from_obj(json.loads(text))
    except json.JSONDecodeError as e:
        raise DerivationFormatError(f"not valid JSON: {e}") from e
    except RecursionError as e:
        raise DerivationFormatError("nested too deeply") from e
