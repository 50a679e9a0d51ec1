"""Tests for the SQL tokenizer."""

import pytest

from repro.errors import ParseError
from repro.sql import Token, TokenType, tokenize


def _types(sql):
    return [t.type for t in tokenize(sql)]


class TestBasics:
    def test_keywords_upcased(self):
        tokens = tokenize("select FROM Join")
        assert [t.text for t in tokens[:-1]] == ["SELECT", "FROM", "JOIN"]
        assert all(t.type is TokenType.KEYWORD for t in tokens[:-1])

    def test_identifiers_keep_case(self):
        token = tokenize("myTable")[0]
        assert token.type is TokenType.IDENT
        assert token.text == "myTable"

    def test_keyword_spelling_after_a_dot_is_a_column_name(self):
        tokens = tokenize("SELECT COUNT(*) FROM tags WHERE tags.Count > 3")
        assert tokens[1].is_keyword("COUNT")
        dotted = tokens[-4]
        assert (dotted.type, dotted.text) == (TokenType.IDENT, "Count")

    def test_eof_always_last(self):
        assert tokenize("")[-1].type is TokenType.EOF

    def test_punctuation(self):
        assert _types("( ) , * .")[:-1] == [
            TokenType.LPAREN,
            TokenType.RPAREN,
            TokenType.COMMA,
            TokenType.STAR,
            TokenType.DOT,
        ]


class TestNumbers:
    def test_integer(self):
        assert tokenize("42")[0].text == "42"

    def test_float(self):
        assert tokenize("3.14")[0].text == "3.14"

    def test_negative_number(self):
        token = tokenize("-5")[0]
        assert token.type is TokenType.NUMBER
        assert token.text == "-5"

    def test_qualified_column_is_not_a_float(self):
        tokens = tokenize("t1.c1")
        assert [t.type for t in tokens[:-1]] == [
            TokenType.IDENT,
            TokenType.DOT,
            TokenType.IDENT,
        ]

    def test_number_then_dot_identifier(self):
        # "1.x" must not swallow the dot into the number.
        tokens = tokenize("1 .x")
        assert tokens[0].type is TokenType.NUMBER


class TestStrings:
    def test_simple_string(self):
        assert tokenize("'hello'")[0].text == "hello"

    def test_escaped_quote(self):
        assert tokenize("'it''s'")[0].text == "it's"

    def test_unterminated_string(self):
        with pytest.raises(ParseError):
            tokenize("'oops")


class TestOperators:
    @pytest.mark.parametrize("op", ["=", "<", ">", "<=", ">=", "<>"])
    def test_each_operator(self, op):
        token = tokenize(op)[0]
        assert token.type is TokenType.OP
        assert token.text == op

    def test_bang_equals_normalized(self):
        assert tokenize("!=")[0].text == "<>"

    def test_two_char_ops_not_split(self):
        tokens = tokenize("a <= 1")
        assert tokens[1].text == "<="

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as exc:
            tokenize("a ; b")
        assert exc.value.position == 2


class TestTokenHelpers:
    def test_is_keyword(self):
        token = Token(TokenType.KEYWORD, "SELECT", 0)
        assert token.is_keyword("SELECT")
        assert not token.is_keyword("FROM")
