"""Shared tokenizer for program files, feature expressions, and abstraction specs.

A token is a plain tuple (kind, text, offset): kind is 'ident', 'num', 'sym'
or 'eof', and offset is where the token starts in the source text.  Line and
column are derived from the offset only when an error is reported.  Tokens of
different kinds never share a text, so a parser may dispatch on the text.

The rules: whitespace is whatever `str.isspace` accepts, and only '\\n' ends a
line; an identifier is a letter (`str.isalpha`) or '_' followed by letters,
digits (`str.isalnum`) and '_'; a number is a run of `str.isdigit`
characters; symbols are read by maximal munch.
"""

import re
from itertools import chain, repeat

from .errors import ParseError

# One match per token, with the whitespace before it (\s is exactly
# str.isspace, \w exactly str.isalnum or '_').  The groups, tried in order:
#   ASCII identifier;
#   a run of decimal digits (\d) that no other digit or letter extends;
#   symbol, each multi-character symbol before its prefixes;
#   any other word run, split by _split_word: \d holds only the decimal
#     digits, so runs with other digits ('²'), other numerals ('½') or
#     non-ASCII letters need str.isdigit and str.isalpha;
#   any other character, which is an error;
# or the end of the text, whose match carries the trailing whitespace.
_SCAN = re.compile(
    r"(\s*)(?:([A-Za-z_]\w*)|(\d+)(?![^\W_A-Za-z])"
    r"|(=>|:=|>>|\|\||#if|[|&!(){},;<=+*-])|(\w+)|(\S)|\Z)"
)


def position(text, offset):
    """(line, column) of an offset into text, both counted from 1."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _unexpected(text, offset):
    return ParseError(f"unexpected character {text[offset]!r}", *position(text, offset))


def _split_word(text, word, offset, append):
    """Tokens of a word run the scanner leaves open: digits, then an identifier."""
    digits = 0
    while digits < len(word) and word[digits].isdigit():
        digits += 1
    if digits:
        append(("num", word[:digits], offset))
    if digits < len(word):
        start = word[digits]
        if not (start.isalpha() or start == "_"):
            raise _unexpected(text, offset + digits)
        append(("ident", word[digits:], offset + digits))


def tokenize(text):
    tokens = []
    append = tokens.append
    offset = 0
    for space, ident, num, sym, word, other in _SCAN.findall(text):
        offset += len(space)
        if sym:
            append(("sym", sym, offset))
            offset += len(sym)
        elif ident:
            append(("ident", ident, offset))
            offset += len(ident)
        elif num:
            append(("num", num, offset))
            offset += len(num)
        elif word:
            _split_word(text, word, offset, append)
            offset += len(word)
        elif other:
            raise _unexpected(text, offset)
    append(("eof", "", offset))
    return tokens


class Cursor:
    """A peek/advance view over the tokens of a text, shared by the recursive-descent parsers."""

    def __init__(self, text):
        self.text = text
        tokens = tokenize(text)
        self.current = tokens[0]
        # past the end, every read gives the eof token again
        self._next = chain(tokens[1:], repeat(tokens[-1])).__next__

    def at_sym(self, *texts):
        tok = self.current
        return tok[0] == "sym" and tok[1] in texts

    def advance(self):
        tok = self.current
        self.current = self._next()
        return tok

    def expect(self, kind, text=None):
        tok = self.current
        if tok[0] != kind or (text is not None and tok[1] != text):
            want = text if text is not None else kind
            got = tok[1] if tok[0] != "eof" else "end of input"
            self.error(f"expected {want!r}, found {got!r}")
        return self.advance()

    def where(self, tok=None):
        """(line, column) of a token, by default the current one."""
        return position(self.text, (tok or self.current)[2])

    def error(self, message, tok=None):
        """Raise a ParseError at a token, by default the current one."""
        raise ParseError(message, *self.where(tok))

    def finish(self):
        """Raise unless the whole text has been read."""
        if self.current[0] != "eof":
            self.error(f"unexpected trailing input {self.current[1]!r}")
