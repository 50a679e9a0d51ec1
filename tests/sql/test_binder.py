"""Tests for the binder: name resolution and normalization."""

import numpy as np
import pytest

from repro.errors import BindError, SchemaError
from repro.sql import AggKind, PredicateOp, bind_sql
from repro.storage import Catalog, Column, Table


@pytest.fixture()
def catalog():
    rng = np.random.default_rng(0)
    catalog = Catalog()
    catalog.register(
        Table.from_arrays(
            "users", {"id": np.arange(50), "age": rng.integers(0, 90, 50)}
        )
    )
    catalog.register(
        Table.from_arrays(
            "posts",
            {
                "id": np.arange(200),
                "owner_id": rng.integers(0, 50, 200),
                "score": rng.integers(-5, 50, 200),
            },
        )
    )
    catalog.register(
        Table(
            "dims",
            [
                Column.from_strings("city", ["sh", "bj", "gz", "sh"]),
                Column.from_ints("k", [1, 2, 3, 4]),
            ],
        )
    )
    return catalog


class TestKeywordNamedColumn:
    """STATS has ``tags.Count``: a column that spells a keyword."""

    @pytest.fixture()
    def tags_catalog(self, catalog):
        catalog.register(
            Table.from_arrays(
                "tags", {"Id": np.arange(20), "Count": np.arange(20) * 3}
            )
        )
        return catalog

    def test_parse_print_parse_round_trip(self, tags_catalog):
        from repro.serving.fingerprint import query_fingerprint

        sql = (
            "SELECT COUNT(*) FROM tags t JOIN posts p ON t.Id = p.id "
            "WHERE t.Count >= 12 AND t.Count < 40 AND p.score > 0"
        )
        first = bind_sql(sql, tags_catalog)
        assert [(p.table, p.column) for p in first.predicates if p.table == "tags"] == [
            ("tags", "Count"),
            ("tags", "Count"),
        ]
        printed = first.to_sql()
        assert "tags.Count" in printed
        again = bind_sql(printed, tags_catalog)
        assert query_fingerprint(again) == query_fingerprint(first)
        assert again.to_sql() == printed

    def test_count_distinct_of_the_count_column(self, tags_catalog):
        q = bind_sql("SELECT COUNT(DISTINCT tags.Count) FROM tags", tags_catalog)
        assert q.agg.kind is AggKind.COUNT_DISTINCT and q.agg.column == "Count"
        assert bind_sql(q.to_sql(), tags_catalog).agg == q.agg


class TestTableResolution:
    def test_alias_binding(self, catalog):
        q = bind_sql("SELECT COUNT(*) FROM users u WHERE u.age > 30", catalog)
        assert q.tables == ("users",)
        assert q.predicates[0].table == "users"

    def test_unknown_table(self, catalog):
        with pytest.raises(BindError):
            bind_sql("SELECT COUNT(*) FROM nothere", catalog)

    def test_duplicate_binding(self, catalog):
        with pytest.raises(BindError):
            bind_sql("SELECT COUNT(*) FROM users u, posts u", catalog)


class TestColumnResolution:
    def test_unqualified_unique_column(self, catalog):
        q = bind_sql(
            "SELECT COUNT(*) FROM users JOIN posts ON users.id = posts.owner_id "
            "WHERE age > 10",
            catalog,
        )
        assert q.predicates[0].table == "users"

    def test_ambiguous_column(self, catalog):
        with pytest.raises(BindError):
            bind_sql(
                "SELECT COUNT(*) FROM users JOIN posts ON users.id = posts.owner_id "
                "WHERE id > 10",
                catalog,
            )

    def test_unknown_column(self, catalog):
        with pytest.raises(BindError):
            bind_sql("SELECT COUNT(*) FROM users WHERE wat = 1", catalog)

    def test_unknown_qualifier(self, catalog):
        with pytest.raises(BindError):
            bind_sql("SELECT COUNT(*) FROM users WHERE zz.age = 1", catalog)


class TestJoinExtraction:
    def test_on_clause_join(self, catalog):
        q = bind_sql(
            "SELECT COUNT(*) FROM users u JOIN posts p ON u.id = p.owner_id",
            catalog,
        )
        assert len(q.joins) == 1
        join = q.joins[0]
        assert {join.left_table, join.right_table} == {"users", "posts"}

    def test_where_clause_join(self, catalog):
        q = bind_sql(
            "SELECT COUNT(*) FROM users u, posts p WHERE u.id = p.owner_id",
            catalog,
        )
        assert len(q.joins) == 1

    def test_cross_join_rejected(self, catalog):
        # No join condition between the tables -> disconnected graph.
        with pytest.raises(SchemaError):
            bind_sql("SELECT COUNT(*) FROM users, posts", catalog)


class TestPredicateNormalization:
    def test_comparison_ops(self, catalog):
        q = bind_sql("SELECT COUNT(*) FROM users WHERE age >= 18", catalog)
        assert q.predicates[0].op is PredicateOp.GE

    def test_flipped_literal_side(self, catalog):
        q = bind_sql("SELECT COUNT(*) FROM users WHERE 18 <= age", catalog)
        assert q.predicates[0].op is PredicateOp.GE

    def test_not_negates(self, catalog):
        q = bind_sql("SELECT COUNT(*) FROM users WHERE NOT age < 18", catalog)
        assert q.predicates[0].op is PredicateOp.GE

    def test_in_values_encoded(self, catalog):
        q = bind_sql("SELECT COUNT(*) FROM dims WHERE city IN ('sh', 'bj')", catalog)
        pred = q.predicates[0]
        assert pred.op is PredicateOp.IN
        assert len(pred.value) == 2

    def test_between(self, catalog):
        q = bind_sql("SELECT COUNT(*) FROM users WHERE age BETWEEN 20 AND 30", catalog)
        assert q.predicates[0].value == (20.0, 30.0)

    def test_or_group_extracted(self, catalog):
        q = bind_sql(
            "SELECT COUNT(*) FROM users WHERE age < 10 OR age > 80", catalog
        )
        assert len(q.or_groups) == 1
        assert len(q.or_groups[0]) == 2
        assert not q.predicates

    def test_string_literal_encoded_to_code(self, catalog):
        q = bind_sql("SELECT COUNT(*) FROM dims WHERE city = 'sh'", catalog)
        code = q.predicates[0].value
        assert code == float(
            catalog.table("dims").column("city").dictionary.index("sh")
        )


class TestAggregates:
    def test_count_star(self, catalog):
        q = bind_sql("SELECT COUNT(*) FROM users", catalog)
        assert q.agg.kind is AggKind.COUNT

    def test_count_distinct(self, catalog):
        q = bind_sql("SELECT COUNT(DISTINCT age) FROM users", catalog)
        assert q.agg.kind is AggKind.COUNT_DISTINCT
        assert q.agg.column == "age"

    def test_avg(self, catalog):
        q = bind_sql("SELECT AVG(score) FROM posts", catalog)
        assert q.agg.kind is AggKind.AVG

    def test_group_by_resolved(self, catalog):
        q = bind_sql("SELECT age, COUNT(*) FROM users GROUP BY age", catalog)
        assert q.group_by == (("users", "age"),)

    def test_missing_aggregate_rejected(self, catalog):
        with pytest.raises(BindError):
            bind_sql("SELECT age FROM users", catalog)

    def test_distinct_sum_rejected(self, catalog):
        with pytest.raises(BindError):
            bind_sql("SELECT SUM(DISTINCT age) FROM users", catalog)
