"""The lexers against the character-by-character lexer they replaced
(`former._lex`): the same tokens at the same offsets, the same line and
column for each, and the same error at the same place."""

import json
import re
import sys

import hypothesis as hyp
import hypothesis.strategies as st
import pytest

import former
from conftest import DATA
from l2int.textio import _FORMULA_TOKENS, _TERM_TOKENS, ParseError, _lex, _span

LEXERS = [(_FORMULA_TOKENS, former.FORMULA_TOKENS), (_TERM_TOKENS, former.TERM_TOKENS)]


def _outcome(lex):
    try:
        return lex()
    except ParseError as e:
        return e.message, e.span, e.expected


def _assert_same(src: str) -> None:
    for lexer, tables in LEXERS:
        new = _outcome(lambda: [(*t, _span(src, t.start, t.end)) for t in _lex(src, lexer)])
        old = _outcome(lambda: [(t.kind, t.text, t.start, t.end, t.span) for t in former._lex(src, *tables)])
        assert new == old, (src, lexer.pattern)


def _strings(obj):
    if isinstance(obj, str):
        yield obj
    elif isinstance(obj, dict):
        for k, v in obj.items():
            yield k
            yield from _strings(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _strings(v)


def test_lexers_match_former_lexer_on_the_data_files():
    seen = set()
    for path in sorted(DATA.iterdir()):
        text = path.read_text()
        seen.add(text)
        for line in text.splitlines() if path.suffix == ".jsonl" else [text]:
            seen.update(_strings(json.loads(line)))
    assert len(seen) > 500
    for src in seen:
        _assert_same(src)


# Every character either lexer treats apart, and characters on which
# Unicode's classes and ASCII ranges disagree: letters in each case (the
# titlecase ǅ, an uppercase É), a lowercase numeral that is no letter (ⅰ),
# a combining mark, digits that are not ASCII (superscript, Arabic-Indic),
# and whitespace that is not ASCII or not a line break.
_ALPHABET = (
    "abzAZx\u00e9\u00c9\u01c5\u2170\u00aa\u0301_09\u00b2\u0663 \n\t\r\u3000\x1c\u2028"
    "()<>{},.|&\\+-?@^\u00b1'\"[]"
)


@hyp.settings(max_examples=1500, deadline=None, suppress_health_check=[hyp.HealthCheck.too_slow])
@hyp.given(st.text(alphabet=_ALPHABET, max_size=30))
def test_lexers_match_former_lexer_on_mixed_text(src):
    _assert_same(src)


@pytest.mark.parametrize(
    "src", ["a\n\tb \u00e9", "x \u00b2", "x\u2170 \u2170", "e\u0301", "a\u3000\x1c b", "\n\n  A", "top->", "a -< ( b"]
)
def test_lexers_match_former_lexer_on_examples(src):
    _assert_same(src)


def test_word_and_space_classes_match_the_str_methods():
    # The lexers match words with \w and skip whitespace with \s, where
    # the former lexer asked str.isalnum() (or "_") and str.isspace().
    # This holds for every code point on the interpreter running it.
    word, space = re.compile(r"\w"), re.compile(r"\s")
    for cp in range(sys.maxunicode + 1):
        c = chr(cp)
        assert (word.match(c) is not None) == (c.isalnum() or c == "_"), hex(cp)
        assert (space.match(c) is not None) == c.isspace(), hex(cp)
