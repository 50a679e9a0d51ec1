"""Tests for the SQL parser."""

import pytest

from repro.errors import ParseError
from repro.sql import (
    And,
    Between,
    ColumnRef,
    Comparison,
    FuncCall,
    InList,
    Literal,
    Not,
    Or,
    Star,
    parse_sql,
)


class TestSelectList:
    def test_count_star(self):
        stmt = parse_sql("SELECT COUNT(*) FROM t")
        func = stmt.select[0]
        assert isinstance(func, FuncCall)
        assert func.func == "COUNT"
        assert isinstance(func.arg, Star)

    def test_count_distinct(self):
        stmt = parse_sql("SELECT COUNT(DISTINCT c) FROM t")
        func = stmt.select[0]
        assert func.distinct
        assert isinstance(func.arg, ColumnRef)

    def test_avg_column(self):
        stmt = parse_sql("SELECT AVG(t.score) FROM t")
        func = stmt.select[0]
        assert func.func == "AVG"
        assert func.arg == ColumnRef("score", "t")

    def test_multiple_items(self):
        stmt = parse_sql("SELECT a, COUNT(*) FROM t GROUP BY a")
        assert len(stmt.select) == 2


class TestFromAndJoins:
    def test_alias_with_as(self):
        stmt = parse_sql("SELECT COUNT(*) FROM t AS x")
        assert stmt.from_tables[0].alias == "x"

    def test_alias_without_as(self):
        stmt = parse_sql("SELECT COUNT(*) FROM t x")
        assert stmt.from_tables[0].alias == "x"

    def test_join_on(self):
        stmt = parse_sql("SELECT COUNT(*) FROM a JOIN b ON a.id = b.a_id")
        assert len(stmt.joins) == 1
        assert isinstance(stmt.joins[0].condition, Comparison)

    def test_inner_join_keyword(self):
        stmt = parse_sql("SELECT COUNT(*) FROM a INNER JOIN b ON a.id = b.a_id")
        assert len(stmt.joins) == 1

    def test_comma_separated_tables(self):
        stmt = parse_sql("SELECT COUNT(*) FROM a, b WHERE a.id = b.a_id")
        assert len(stmt.from_tables) == 2

    def test_chained_joins(self):
        stmt = parse_sql(
            "SELECT COUNT(*) FROM a JOIN b ON a.id = b.a_id "
            "JOIN c ON b.id = c.b_id"
        )
        assert len(stmt.joins) == 2


class TestWhere:
    def test_comparison(self):
        stmt = parse_sql("SELECT COUNT(*) FROM t WHERE a > 5")
        assert stmt.where == Comparison(">", ColumnRef("a"), Literal(5))

    def test_and_flattening_via_structure(self):
        stmt = parse_sql("SELECT COUNT(*) FROM t WHERE a > 1 AND b > 2 AND c > 3")
        assert isinstance(stmt.where, And)
        assert len(stmt.where.operands) == 3

    def test_or_precedence_binds_looser_than_and(self):
        stmt = parse_sql("SELECT COUNT(*) FROM t WHERE a = 1 AND b = 2 OR c = 3")
        assert isinstance(stmt.where, Or)
        assert isinstance(stmt.where.operands[0], And)

    def test_parentheses_override(self):
        stmt = parse_sql("SELECT COUNT(*) FROM t WHERE a = 1 AND (b = 2 OR c = 3)")
        assert isinstance(stmt.where, And)
        assert isinstance(stmt.where.operands[1], Or)

    def test_not(self):
        stmt = parse_sql("SELECT COUNT(*) FROM t WHERE NOT a = 1")
        assert isinstance(stmt.where, Not)

    def test_in_list(self):
        stmt = parse_sql("SELECT COUNT(*) FROM t WHERE a IN (1, 2, 3)")
        assert isinstance(stmt.where, InList)
        assert len(stmt.where.values) == 3

    def test_between(self):
        stmt = parse_sql("SELECT COUNT(*) FROM t WHERE a BETWEEN 1 AND 5")
        assert stmt.where == Between(ColumnRef("a"), Literal(1), Literal(5))

    def test_between_binds_and_correctly(self):
        stmt = parse_sql("SELECT COUNT(*) FROM t WHERE a BETWEEN 1 AND 5 AND b = 2")
        assert isinstance(stmt.where, And)
        assert isinstance(stmt.where.operands[0], Between)

    def test_literal_on_left(self):
        stmt = parse_sql("SELECT COUNT(*) FROM t WHERE 5 < a")
        assert isinstance(stmt.where, Comparison)
        assert isinstance(stmt.where.left, Literal)

    def test_string_literal(self):
        stmt = parse_sql("SELECT COUNT(*) FROM t WHERE city = 'sh'")
        assert stmt.where.right == Literal("sh")


class TestGroupBy:
    def test_single_key(self):
        stmt = parse_sql("SELECT COUNT(*) FROM t GROUP BY a")
        assert stmt.group_by == (ColumnRef("a"),)

    def test_multiple_keys(self):
        stmt = parse_sql("SELECT COUNT(*) FROM t GROUP BY t.a, t.b")
        assert len(stmt.group_by) == 2


class TestErrors:
    @pytest.mark.parametrize(
        "sql",
        [
            "COUNT(*) FROM t",  # missing SELECT
            "SELECT COUNT(*)",  # missing FROM
            "SELECT COUNT(*) FROM t WHERE",  # dangling WHERE
            "SELECT COUNT(*) FROM t WHERE a",  # no comparison
            "SELECT COUNT(*) FROM t WHERE a IN ()",  # empty IN
            "SELECT COUNT(*) FROM t GROUP BY",  # dangling GROUP BY
        ],
    )
    def test_rejects_malformed(self, sql):
        with pytest.raises(ParseError):
            parse_sql(sql)

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_sql("SELECT COUNT(*) FROM t WHERE a = 1 ;")


class TestRoundTrip:
    def test_statement_str_reparses(self):
        sql = (
            "SELECT COUNT(*) FROM a JOIN b ON a.id = b.a_id "
            "WHERE a.x > 3 AND b.y IN (1, 2) AND a.z BETWEEN 1 AND 5 "
            "AND NOT (a.w = 2) GROUP BY a.x"
        )
        stmt = parse_sql(sql)
        reparsed = parse_sql(str(stmt))
        assert reparsed == stmt
