"""Hand-written tokenizer for the supported SQL dialect."""

from __future__ import annotations

import enum
from dataclasses import dataclass

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


@dataclass(frozen=True)
class Token:
    type: TokenType
    text: str
    position: int

    def is_keyword(self, word: str) -> bool:
        return self.type is TokenType.KEYWORD and self.text == word


_OPERATORS = ("<=", ">=", "<>", "!=", "=", "<", ">")


def tokenize(sql: str) -> list[Token]:
    """Tokenize a SQL string, raising :class:`ParseError` on bad input."""
    tokens: list[Token] = []
    i = 0
    n = len(sql)
    while i < n:
        ch = sql[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "'":
            j = i + 1
            chunks: list[str] = []
            while True:
                if j >= n:
                    raise ParseError("unterminated string literal", position=i)
                if sql[j] == "'":
                    if j + 1 < n and sql[j + 1] == "'":  # escaped quote
                        chunks.append("'")
                        j += 2
                        continue
                    break
                chunks.append(sql[j])
                j += 1
            tokens.append(Token(TokenType.STRING, "".join(chunks), i))
            i = j + 1
            continue
        if ch.isdigit() or (ch == "-" and i + 1 < n and sql[i + 1].isdigit()):
            j = i + 1
            seen_dot = False
            while j < n and (sql[j].isdigit() or (sql[j] == "." and not seen_dot)):
                # A dot is part of the number only when followed by a digit;
                # otherwise it is a qualifier dot (e.g. "t1.c1").
                if sql[j] == ".":
                    if j + 1 >= n or not sql[j + 1].isdigit():
                        break
                    seen_dot = True
                j += 1
            tokens.append(Token(TokenType.NUMBER, sql[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (sql[j].isalnum() or sql[j] == "_"):
                j += 1
            word = sql[i:j]
            upper = word.upper()
            # After a qualifier dot the word names a column ("tags.Count"),
            # whatever keyword it happens to spell.
            after_dot = bool(tokens) and tokens[-1].type is TokenType.DOT
            if upper in KEYWORDS and not after_dot:
                tokens.append(Token(TokenType.KEYWORD, upper, i))
            else:
                tokens.append(Token(TokenType.IDENT, word, i))
            i = j
            continue
        matched_op = next((op for op in _OPERATORS if sql.startswith(op, i)), None)
        if matched_op is not None:
            text = "<>" if matched_op == "!=" else matched_op
            tokens.append(Token(TokenType.OP, text, i))
            i += len(matched_op)
            continue
        simple = {
            ",": TokenType.COMMA,
            ".": TokenType.DOT,
            "(": TokenType.LPAREN,
            ")": TokenType.RPAREN,
            "*": TokenType.STAR,
        }.get(ch)
        if simple is not None:
            tokens.append(Token(simple, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", position=i)
    tokens.append(Token(TokenType.EOF, "", n))
    return tokens
