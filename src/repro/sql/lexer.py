"""SQL lexer.

Splits SQL text into a stream of typed tokens.  The lexer is
case-insensitive for keywords and identifiers (identifiers are folded to
lower case, matching PostgreSQL's default behaviour) and preserves the
original text of literals.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass

from repro.errors import SQLError


class TokenType(enum.Enum):
    """Lexical categories produced by :class:`Lexer`."""

    KEYWORD = "keyword"
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    PUNCT = "punct"
    EOF = "eof"


# Keywords recognised by the parser.  Anything else alphabetic is an
# identifier.  Kept deliberately small: this is an OLAP-query dialect.
KEYWORDS = frozenset(
    {
        "select", "from", "where", "group", "by", "having", "order",
        "limit", "offset", "as", "and", "or", "not", "in", "like",
        "between", "is", "null", "exists", "distinct", "join", "inner",
        "left", "right", "full", "outer", "cross", "on", "asc", "desc",
        "case", "when", "then", "else", "end", "union", "all", "any",
        "interval", "date", "extract", "substring", "cast", "true",
        "false",
    }
)

_OPERATORS = ("<>", "<=", ">=", "!=", "||", "=", "<", ">", "+", "-", "*", "/", "%")
_PUNCT = "(),.;"


@dataclass(frozen=True, slots=True)
class Token:
    """One lexical token with its source position (for error messages)."""

    type: TokenType
    value: str
    position: int

    def is_keyword(self, *names: str) -> bool:
        """Return True if this token is one of the given keywords."""
        return self.type is TokenType.KEYWORD and self.value in names


class Lexer:
    """Single-pass scanner over SQL text."""

    def __init__(self, text: str) -> None:
        self._text = text
        self._pos = 0
        self._length = len(text)

    def tokens(self) -> list[Token]:
        """Scan the entire input and return all tokens plus a trailing EOF."""
        result: list[Token] = []
        while True:
            token = self._next_token()
            result.append(token)
            if token.type is TokenType.EOF:
                return result

    def _next_token(self) -> Token:
        self._skip_whitespace_and_comments()
        if self._pos >= self._length:
            return Token(TokenType.EOF, "", self._pos)

        start = self._pos
        char = self._text[start]

        if char == "'":
            return self._scan_string(start)
        if char.isdigit() or (char == "." and self._peek_is_digit(start + 1)):
            return self._scan_number(start)
        if char.isalpha() or char == "_":
            return self._scan_word(start)
        if char == '"':
            return self._scan_quoted_identifier(start)
        for op in _OPERATORS:
            if self._text.startswith(op, start):
                self._pos = start + len(op)
                return Token(TokenType.OPERATOR, op, start)
        if char in _PUNCT:
            self._pos = start + 1
            return Token(TokenType.PUNCT, char, start)
        raise SQLError(f"unexpected character {char!r}", position=start)

    def _skip_whitespace_and_comments(self) -> None:
        text, length = self._text, self._length
        while self._pos < length:
            char = text[self._pos]
            if char.isspace():
                self._pos += 1
            elif text.startswith("--", self._pos):
                newline = text.find("\n", self._pos)
                self._pos = length if newline < 0 else newline + 1
            elif text.startswith("/*", self._pos):
                close = text.find("*/", self._pos + 2)
                if close < 0:
                    raise SQLError("unterminated block comment", position=self._pos)
                self._pos = close + 2
            else:
                return

    def _peek_is_digit(self, pos: int) -> bool:
        return pos < self._length and self._text[pos].isdigit()

    def _scan_string(self, start: int) -> Token:
        pos = start + 1
        pieces: list[str] = []
        while pos < self._length:
            char = self._text[pos]
            if char == "'":
                # '' escapes a single quote inside a string literal.
                if pos + 1 < self._length and self._text[pos + 1] == "'":
                    pieces.append("'")
                    pos += 2
                    continue
                self._pos = pos + 1
                return Token(TokenType.STRING, "".join(pieces), start)
            pieces.append(char)
            pos += 1
        raise SQLError("unterminated string literal", position=start)

    def _scan_number(self, start: int) -> Token:
        pos = start
        seen_dot = False
        seen_exp = False
        while pos < self._length:
            char = self._text[pos]
            if char.isdigit():
                pos += 1
            elif char == "." and not seen_dot and not seen_exp:
                seen_dot = True
                pos += 1
            elif char in "eE" and not seen_exp and pos > start:
                nxt = pos + 1
                if nxt < self._length and self._text[nxt] in "+-":
                    nxt += 1
                if nxt < self._length and self._text[nxt].isdigit():
                    seen_exp = True
                    pos = nxt
                else:
                    break
            else:
                break
        self._pos = pos
        return Token(TokenType.NUMBER, self._text[start:pos], start)

    def _scan_word(self, start: int) -> Token:
        pos = start
        while pos < self._length and (self._text[pos].isalnum() or self._text[pos] == "_"):
            pos += 1
        self._pos = pos
        word = self._text[start:pos].lower()
        kind = TokenType.KEYWORD if word in KEYWORDS else TokenType.IDENT
        return Token(kind, word, start)

    def _scan_quoted_identifier(self, start: int) -> Token:
        close = self._text.find('"', start + 1)
        if close < 0:
            raise SQLError("unterminated quoted identifier", position=start)
        self._pos = close + 1
        return Token(TokenType.IDENT, self._text[start + 1 : close].lower(), start)


def content_key(text: str) -> bytes:
    """Stable content hash of SQL text; the parser's memoization key."""
    return hashlib.sha256(text.encode()).digest()


def tokenize(text: str) -> list[Token]:
    """Tokenize ``text``, returning all tokens including the EOF sentinel.

    Not memoized: its one caller in the pipeline,
    :func:`~repro.sql.parser.parse_select`, memoizes whole parses by
    :func:`content_key`, so it lexes each distinct text once.  The
    returned list is a fresh container the caller may mutate.
    """
    return Lexer(text).tokens()
