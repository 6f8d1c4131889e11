"""The one-pattern scanner against the character loop it replaced."""

import random
import re
import sys

import pytest

from liftcal import abstraction as ab
from liftcal import lang, lexer, oracle
from liftcal.errors import ParseError

# ---------------------------------------------------------------------------
# The reference: the character-by-character tokenizer the scanner replaced,
# kept verbatim except that it returns (kind, text, line, col) tuples.

_SYMBOLS = (
    "=>", ":=", ">>", "||", "#if",
    "|", "&", "!", "(", ")", "{", "}", ",", ";", "<", "=", "+", "-", "*",
)


def reference_tokenize(text):
    tokens = []
    pos, line, col = 0, 1, 1
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch == "\n":
            pos += 1
            line += 1
            col = 1
            continue
        if ch.isspace():
            pos += 1
            col += 1
            continue
        if ch.isalpha() or ch == "_":
            start = pos
            while pos < n and (text[pos].isalnum() or text[pos] == "_"):
                pos += 1
            word = text[start:pos]
            tokens.append(("ident", word, line, col))
            col += pos - start
            continue
        if ch.isdigit():
            start = pos
            while pos < n and text[pos].isdigit():
                pos += 1
            tokens.append(("num", text[start:pos], line, col))
            col += pos - start
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, pos):
                tokens.append(("sym", sym, line, col))
                pos += len(sym)
                col += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(("eof", "", line, col))
    return tokens


def scanned(text):
    return [
        (kind, word, *lexer.position(text, offset)) for kind, word, offset in lexer.tokenize(text)
    ]


def outcome(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as exc:
        return ("error", str(exc), exc.line, exc.col)


# ASCII word characters plus a non-ASCII letter, a digit that is not decimal,
# a numeral that is not a digit and a decimal digit that is not ASCII; a
# newline, a space and a whitespace character that ends no line; every symbol
# and every prefix of one
ALPHABET = (
    [chr(c) for c in range(ord("a"), ord("z") + 1)]
    + [chr(c) for c in range(ord("A"), ord("Z") + 1)]
    + list("0123456789_")
    + ["é", "²", "½", "٣"]
    + ["\n", " ", "\x1c"]
    + ["#", "#i", "#if", ":", ":=", "=", "=>", ">", ">>", "|", "||"]
    + ["&", "!", "(", ")", "{", "}", ",", ";", "<", "+", "-", "*"]
)


def test_scanner_matches_reference_on_random_strings():
    rng = random.Random(20261019)
    errors = 0
    for _ in range(4000):
        text = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 24)))
        expected = outcome(reference_tokenize, text)
        assert outcome(scanned, text) == expected, repr(text)
        errors += expected[0] == "error"
    assert 0 < errors < 4000  # both outcomes are exercised


def test_scanner_matches_reference_on_generated_texts():
    gen = oracle.CaseGen(5)
    for _ in range(200):
        program = oracle.gen_random_program(gen)
        alpha = oracle.gen_random_abstraction(gen, program.feature_model.space)
        for text in (lang.pretty(program), ab.render_abstraction(alpha)):
            assert scanned(text) == reference_tokenize(text)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "  \n\n ",
        "x := 1 $",
        "x := ²",
        "x² 12²y 1é ٣٣",
        "1½",
        "½",
        "#i",
        "#ifx",
        "a\x1cb\n\x1c:",
        "<=>>>||| :==",
        "7" * 5000,
    ],
)
def test_scanner_matches_reference_on_edge_cases(text):
    assert outcome(scanned, text) == outcome(reference_tokenize, text)


def test_pattern_classes_are_the_string_predicates():
    # the scanner rests on \w being str.isalnum or '_', \s being str.isspace,
    # and \d holding only str.isdigit characters, over all of Unicode
    chars = "".join(chr(c) for c in range(sys.maxunicode + 1) if not 0xD800 <= c < 0xE000)
    assert set(re.findall(r"\w", chars)) == {c for c in chars if c.isalnum() or c == "_"}
    assert set(re.findall(r"\s", chars)) == {c for c in chars if c.isspace()}
    assert all(c.isdigit() for c in re.findall(r"\d", chars))


def test_cursor_reports_positions_from_offsets():
    with pytest.raises(ParseError) as exc:
        lang.parse_program("features A;\n model true;\n\tbegin x := 1 end end")
    assert (exc.value.line, exc.value.col) == (3, 19)
    assert str(exc.value) == "unexpected trailing input 'end' (line 3, column 19)"
