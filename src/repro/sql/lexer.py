"""Tokenizer for the supported SQL dialect: one compiled pattern, one pass."""

from __future__ import annotations

import enum
import re
from typing import NamedTuple

from repro.errors import ParseError

KEYWORDS = {
    "SELECT",
    "FROM",
    "WHERE",
    "JOIN",
    "INNER",
    "ON",
    "AND",
    "OR",
    "NOT",
    "IN",
    "BETWEEN",
    "GROUP",
    "BY",
    "AS",
    "COUNT",
    "SUM",
    "AVG",
    "MIN",
    "MAX",
    "DISTINCT",
}


class TokenType(enum.Enum):
    KEYWORD = "keyword"
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    OP = "op"  # = <> < <= > >=
    COMMA = ","
    DOT = "."
    LPAREN = "("
    RPAREN = ")"
    STAR = "*"
    EOF = "eof"


class Token(NamedTuple):
    type: TokenType
    text: str
    position: int

    def is_keyword(self, word: str) -> bool:
        return self.type is TokenType.KEYWORD and self.text == word


# One alternative per token class; ``lastindex`` names the one that matched.
# A quote closes a string only when no second quote follows (``''`` is an
# escaped quote), and a dot belongs to a number only before a digit, so
# "t1.c1" and "1 .x" keep their qualifier dots.  ``\d`` is decimal digits
# only: '²' is not a number, it is an unexpected character.
_SCANNER = re.compile(
    r"""\s*(?:
      '((?:[^']|'')*)'(?!')       # 1 string
    | (')                         # 2 unterminated string
    | (-?\d+(?:\.\d+)?)           # 3 number
    | (\w+)                       # 4 word (must start with a letter or _)
    | (<=|>=|<>|!=|=|<|>)         # 5 operator
    | ([,.()*])                   # 6 punctuation
    | (\S)                        # 7 anything else
    )""",
    re.VERBOSE,
)
_PUNCTUATION = {
    ",": TokenType.COMMA,
    ".": TokenType.DOT,
    "(": TokenType.LPAREN,
    ")": TokenType.RPAREN,
    "*": TokenType.STAR,
}


def tokenize(sql: str) -> list[Token]:
    """Tokenize a SQL string, raising :class:`ParseError` on bad input."""
    tokens: list[Token] = []
    append = tokens.append
    previous = None
    for match in _SCANNER.finditer(sql):
        kind = match.lastindex
        text = match[kind]
        position = match.start(kind)
        if kind == 4 and (text[0] == "_" or text[0].isalpha()):
            upper = text.upper()
            # After a qualifier dot the word names a column ("tags.Count"),
            # whatever keyword it happens to spell.
            if upper in KEYWORDS and previous is not TokenType.DOT:
                token = Token(TokenType.KEYWORD, upper, position)
            else:
                token = Token(TokenType.IDENT, text, position)
        elif kind == 6:
            token = Token(_PUNCTUATION[text], text, position)
        elif kind == 3:
            token = Token(TokenType.NUMBER, text, position)
        elif kind == 5:
            token = Token(TokenType.OP, "<>" if text == "!=" else text, position)
        elif kind == 1:
            token = Token(TokenType.STRING, text.replace("''", "'"), position - 1)
        elif kind == 2:
            raise ParseError("unterminated string literal", position=position)
        else:
            raise ParseError(f"unexpected character {text[0]!r}", position=position)
        append(token)
        previous = token.type
    append(Token(TokenType.EOF, "", len(sql)))
    return tokens
