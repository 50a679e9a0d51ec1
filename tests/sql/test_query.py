"""Tests for the semantic CardQuery model."""

import pytest

from repro.errors import SchemaError
from repro.sql import (
    AggKind,
    AggSpec,
    CardQuery,
    JoinCondition,
    PredicateOp,
    TablePredicate,
)


def _pred(table="a", column="x", op=PredicateOp.EQ, value=1.0):
    return TablePredicate(table, column, op, value)


class TestTablePredicate:
    def test_between_requires_pair(self):
        with pytest.raises(SchemaError):
            TablePredicate("t", "c", PredicateOp.BETWEEN, 1.0)

    def test_between_rejects_reversed_bounds(self):
        with pytest.raises(SchemaError):
            TablePredicate("t", "c", PredicateOp.BETWEEN, (5.0, 1.0))

    def test_in_requires_nonempty_tuple(self):
        with pytest.raises(SchemaError):
            TablePredicate("t", "c", PredicateOp.IN, ())

    def test_scalar_op_rejects_tuple(self):
        with pytest.raises(SchemaError):
            TablePredicate("t", "c", PredicateOp.EQ, (1.0, 2.0))

    def test_str_forms(self):
        assert "BETWEEN" in str(TablePredicate("t", "c", PredicateOp.BETWEEN, (1.0, 2.0)))
        assert "IN" in str(TablePredicate("t", "c", PredicateOp.IN, (1.0,)))


class TestJoinCondition:
    def test_normalization_is_stable(self):
        j1 = JoinCondition("b", "x", "a", "y").normalized()
        j2 = JoinCondition("a", "y", "b", "x").normalized()
        assert j1 == j2

    def test_side_for(self):
        j = JoinCondition("a", "id", "b", "a_id")
        assert j.side_for("a") == "id"
        assert j.side_for("b") == "a_id"
        with pytest.raises(SchemaError):
            j.side_for("c")


class TestAggSpec:
    def test_count_needs_no_column(self):
        AggSpec(AggKind.COUNT)

    def test_count_distinct_needs_column(self):
        with pytest.raises(SchemaError):
            AggSpec(AggKind.COUNT_DISTINCT)

    def test_str(self):
        assert str(AggSpec(AggKind.COUNT)) == "COUNT(*)"
        assert "DISTINCT" in str(AggSpec(AggKind.COUNT_DISTINCT, "t", "c"))


class TestCardQueryValidation:
    def test_requires_tables(self):
        with pytest.raises(SchemaError):
            CardQuery(tables=())

    def test_rejects_duplicate_tables(self):
        with pytest.raises(SchemaError):
            CardQuery(tables=("a", "a"))

    def test_join_must_reference_known_tables(self):
        with pytest.raises(SchemaError):
            CardQuery(
                tables=("a", "b"),
                joins=(JoinCondition("a", "x", "c", "y"),),
            )

    def test_predicate_must_reference_known_table(self):
        with pytest.raises(SchemaError):
            CardQuery(tables=("a",), predicates=(_pred(table="zzz"),))

    def test_disconnected_join_graph_rejected(self):
        with pytest.raises(SchemaError):
            CardQuery(tables=("a", "b"))

    def test_connected_graph_accepted(self):
        q = CardQuery(
            tables=("a", "b"),
            joins=(JoinCondition("a", "x", "b", "y"),),
        )
        assert q.num_joined_tables() == 2


class TestCardQueryAccessors:
    def _query(self):
        return CardQuery(
            tables=("a", "b"),
            joins=(JoinCondition("a", "id", "b", "a_id"),),
            predicates=(_pred("a", "x"), _pred("b", "y", PredicateOp.GT, 3.0)),
            or_groups=(
                (
                    _pred("a", "z", PredicateOp.LT, 0.0),
                    _pred("a", "z", PredicateOp.GT, 9.0),
                ),
            ),
        )

    def test_predicates_on(self):
        q = self._query()
        assert [p.column for p in q.predicates_on("a")] == ["x"]

    def test_all_predicates_includes_or_groups(self):
        assert len(self._query().all_predicates()) == 4

    def test_single_table_subquery(self):
        sub = self._query().single_table_subquery("a")
        assert sub.tables == ("a",)
        assert len(sub.predicates) == 1
        assert not sub.joins

    def test_joins_touching(self):
        q = self._query()
        assert len(q.joins_touching("a")) == 1
        assert q.joins_touching("a") == q.joins_touching("b")

    def test_with_predicates(self):
        q = self._query().with_predicates([_pred("a", "x")])
        assert len(q.predicates) == 1

    def test_to_sql_emits_join_chain(self):
        sql = self._query().to_sql()
        assert "JOIN" in sql and "WHERE" in sql and "OR" in sql


class TestCardQueryHash:
    def _query(self):
        return CardQuery(
            tables=("a", "b"),
            joins=(JoinCondition("a", "id", "b", "a_id"),),
            predicates=(_pred("a", "x"),),
            group_by=(("b", "y"),),
            name="q",
        )

    def test_equal_queries_hash_equal(self):
        assert hash(self._query()) == hash(self._query())
        assert self._query() == self._query()
        assert hash(self._query()) != hash(self._query().with_predicates([]))

    def test_hash_is_computed_once_per_object(self):
        query = self._query()
        first = hash(query)
        assert query.__dict__["_hash"] == first == hash(query)

    def test_a_pickled_query_carries_no_cached_hash(self):
        import copy
        import pickle

        query = self._query()
        hash(query)
        for copied in (pickle.loads(pickle.dumps(query)), copy.copy(query)):
            assert "_hash" not in copied.__dict__
            assert copied == query
            assert hash(copied) == hash(query)
            assert repr(copied) == repr(query)
