"""Tests for the SQL tokenizer."""

import pytest

from repro.errors import ParseError
from repro.sql import Token, TokenType, parse_sql, tokenize
from repro.sql.ast import Literal


def _types(sql):
    return [t.type for t in tokenize(sql)]


def _stream(sql):
    return [(t.type, t.text, t.position) for t in tokenize(sql)]


def _error_position(sql):
    with pytest.raises(ParseError) as exc:
        tokenize(sql)
    return exc.value.position


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

    def test_lowercase_keyword_after_a_dot_is_a_column_name(self):
        assert _stream("t.count") == [
            (TokenType.IDENT, "t", 0),
            (TokenType.DOT, ".", 1),
            (TokenType.IDENT, "count", 2),
            (TokenType.EOF, "", 7),
        ]

    def test_eof_always_last(self):
        assert tokenize("")[-1].type is TokenType.EOF
        assert _stream("  \t") == [(TokenType.EOF, "", 3)]

    def test_punctuation(self):
        assert _types("( ) , * .")[:-1] == [
            TokenType.LPAREN,
            TokenType.RPAREN,
            TokenType.COMMA,
            TokenType.STAR,
            TokenType.DOT,
        ]

    def test_tabs_and_newlines_separate_tokens(self):
        assert _stream("SELECT\tCOUNT(*)\nFROM\r\n t") == [
            (TokenType.KEYWORD, "SELECT", 0),
            (TokenType.KEYWORD, "COUNT", 7),
            (TokenType.LPAREN, "(", 12),
            (TokenType.STAR, "*", 13),
            (TokenType.RPAREN, ")", 14),
            (TokenType.KEYWORD, "FROM", 16),
            (TokenType.IDENT, "t", 23),
            (TokenType.EOF, "", 24),
        ]

    def test_full_statement_stream(self):
        sql = "SELECT COUNT(*) FROM a AS x JOIN b ON x.id = b.id WHERE b.v != -2.5"
        assert _stream(sql) == [
            (TokenType.KEYWORD, "SELECT", 0),
            (TokenType.KEYWORD, "COUNT", 7),
            (TokenType.LPAREN, "(", 12),
            (TokenType.STAR, "*", 13),
            (TokenType.RPAREN, ")", 14),
            (TokenType.KEYWORD, "FROM", 16),
            (TokenType.IDENT, "a", 21),
            (TokenType.KEYWORD, "AS", 23),
            (TokenType.IDENT, "x", 26),
            (TokenType.KEYWORD, "JOIN", 28),
            (TokenType.IDENT, "b", 33),
            (TokenType.KEYWORD, "ON", 35),
            (TokenType.IDENT, "x", 38),
            (TokenType.DOT, ".", 39),
            (TokenType.IDENT, "id", 40),
            (TokenType.OP, "=", 43),
            (TokenType.IDENT, "b", 45),
            (TokenType.DOT, ".", 46),
            (TokenType.IDENT, "id", 47),
            (TokenType.KEYWORD, "WHERE", 50),
            (TokenType.IDENT, "b", 56),
            (TokenType.DOT, ".", 57),
            (TokenType.IDENT, "v", 58),
            (TokenType.OP, "<>", 60),
            (TokenType.NUMBER, "-2.5", 63),
            (TokenType.EOF, "", 67),
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
        assert _stream("1 .x") == [
            (TokenType.NUMBER, "1", 0),
            (TokenType.DOT, ".", 2),
            (TokenType.IDENT, "x", 3),
            (TokenType.EOF, "", 4),
        ]

    def test_trailing_dot_is_not_part_of_the_number(self):
        assert _stream("1.") == [
            (TokenType.NUMBER, "1", 0),
            (TokenType.DOT, ".", 1),
            (TokenType.EOF, "", 2),
        ]

    def test_second_dot_ends_the_number(self):
        assert [(t.type, t.text) for t in tokenize("1.5.3")[:-1]] == [
            (TokenType.NUMBER, "1.5"),
            (TokenType.DOT, "."),
            (TokenType.NUMBER, "3"),
        ]

    def test_minus_needs_an_adjacent_digit(self):
        assert _error_position("a = - 5") == 4
        assert _error_position("--5") == 0

    def test_non_decimal_digit_fails_closed(self):
        # '²' is a digit to str.isdigit, but int() cannot read it: the
        # tokenizer raises ParseError at its position.
        assert _error_position("1²") == 1
        assert _error_position("x = ²") == 4
        sql = "SELECT COUNT(*) FROM t WHERE t.a = ²"
        with pytest.raises(ParseError) as exc:
            parse_sql(sql)
        assert exc.value.position == sql.index("²")

    def test_decimal_digits_of_any_script_are_numbers(self):
        assert _stream("١٢")[0] == (TokenType.NUMBER, "١٢", 0)
        statement = parse_sql("SELECT COUNT(*) FROM t WHERE t.a = ١٢")
        assert statement.where.right == Literal(12)


class TestStrings:
    def test_simple_string(self):
        assert tokenize("'hello'")[0].text == "hello"

    def test_escaped_quote(self):
        assert tokenize("'it''s'")[0].text == "it's"

    def test_unterminated_string(self):
        with pytest.raises(ParseError):
            tokenize("'oops")

    def test_string_at_position_zero(self):
        assert _stream("'x' = a") == [
            (TokenType.STRING, "x", 0),
            (TokenType.OP, "=", 4),
            (TokenType.IDENT, "a", 6),
            (TokenType.EOF, "", 7),
        ]

    @pytest.mark.parametrize(
        "sql, text",
        [
            ("''", ""),
            ("''''", "'"),
            ("'a'''", "a'"),
            ("'''a'", "'a"),
            ("'x\ny'", "x\ny"),
        ],
    )
    def test_escapes_and_edges(self, sql, text):
        assert _stream(sql) == [
            (TokenType.STRING, text, 0),
            (TokenType.EOF, "", len(sql)),
        ]

    @pytest.mark.parametrize(
        "sql, position",
        [("'oops", 0), ("'''", 0), ("'a''", 0), ("a = 'b' AND c = 'd", 16)],
    )
    def test_unterminated_string_position(self, sql, position):
        # An escaped quote never closes a string, however the text ends.
        with pytest.raises(ParseError, match="unterminated") as exc:
            tokenize(sql)
        assert exc.value.position == position


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

    def test_adjacent_operator_and_negative_number(self):
        assert _stream("a<=-1") == [
            (TokenType.IDENT, "a", 0),
            (TokenType.OP, "<=", 1),
            (TokenType.NUMBER, "-1", 3),
            (TokenType.EOF, "", 5),
        ]

    def test_adjacent_operators_split_left_to_right(self):
        assert [t.text for t in tokenize("<>=!=")[:-1]] == ["<>", "=", "<>"]

    def test_lone_bang_is_unexpected(self):
        assert _error_position("a ! b") == 2

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as exc:
            tokenize("a ; b")
        assert exc.value.position == 2

    def test_first_bad_character_is_reported(self):
        assert _error_position("a ; 'b") == 2
        assert _error_position("½ ;") == 0


class TestTokenHelpers:
    def test_is_keyword(self):
        token = Token(TokenType.KEYWORD, "SELECT", 0)
        assert token.is_keyword("SELECT")
        assert not token.is_keyword("FROM")

    def test_identifier_spelling_a_keyword_is_not_one(self):
        assert not Token(TokenType.IDENT, "SELECT", 0).is_keyword("SELECT")
