"""Tests for hash-join execution and hash aggregation."""

import numpy as np
import pytest

from repro.engine import Executor, PhysicalPlan, hash_aggregate
from repro.engine.join import JoinExecution, hash_join_step
from repro.errors import ExecutionError
from repro.sql.query import CardQuery, JoinCondition
from repro.storage import Catalog, Table
from repro.workloads import true_count, true_group_ndv
from repro.workloads.predicates import table_mask


@pytest.fixture(scope="module")
def join_catalog():
    rng = np.random.default_rng(5)
    catalog = Catalog()
    catalog.register(
        Table.from_arrays(
            "dim", {"id": np.arange(100), "grp": rng.integers(0, 10, 100)}
        )
    )
    catalog.register(
        Table.from_arrays(
            "fact",
            {
                "dim_id": rng.integers(0, 100, 2000),
                "val": rng.integers(0, 50, 2000),
            },
        )
    )
    catalog.register(
        Table.from_arrays(
            "fact2",
            {"dim_id": rng.integers(0, 100, 500), "w": rng.integers(0, 5, 500)},
        )
    )
    return catalog


def _join_all(catalog, query, scanned, order, max_intermediate_rows=30_000_000):
    """Drive ``hash_join_step`` over ``order`` from its first left table."""
    start = order[0].left_table if order else query.tables[0]
    execution = JoinExecution(tuples={start: scanned[start]})
    for join in order:
        hash_join_step(catalog, execution, join, scanned, max_intermediate_rows)
    return execution


def _scanned(catalog, query):
    return {
        t: np.flatnonzero(table_mask(catalog.table(t), query))
        for t in query.tables
    }


class TestHashJoin:
    def test_two_way_matches_truth(self, join_catalog):
        query = CardQuery(
            tables=("dim", "fact"),
            joins=(JoinCondition("dim", "id", "fact", "dim_id"),),
        )
        execution = _join_all(
            join_catalog, query, _scanned(join_catalog, query), list(query.joins)
        )
        assert execution.result_rows == true_count(join_catalog, query)

    def test_star_join_matches_truth(self, join_catalog):
        query = CardQuery(
            tables=("dim", "fact", "fact2"),
            joins=(
                JoinCondition("dim", "id", "fact", "dim_id"),
                JoinCondition("dim", "id", "fact2", "dim_id"),
            ),
        )
        execution = _join_all(
            join_catalog, query, _scanned(join_catalog, query), list(query.joins)
        )
        assert execution.result_rows == true_count(join_catalog, query)

    def test_tuple_arrays_are_parallel(self, join_catalog):
        query = CardQuery(
            tables=("dim", "fact"),
            joins=(JoinCondition("dim", "id", "fact", "dim_id"),),
        )
        execution = _join_all(
            join_catalog, query, _scanned(join_catalog, query), list(query.joins)
        )
        dim_keys = join_catalog.table("dim").column("id").values[
            execution.tuples["dim"]
        ]
        fact_keys = join_catalog.table("fact").column("dim_id").values[
            execution.tuples["fact"]
        ]
        assert np.array_equal(dim_keys, fact_keys)

    def test_single_table_passthrough(self, join_catalog):
        query = CardQuery(tables=("dim",))
        execution = _join_all(
            join_catalog, query, _scanned(join_catalog, query), []
        )
        assert execution.result_rows == 100

    def test_intermediate_cap_enforced(self, join_catalog):
        query = CardQuery(
            tables=("dim", "fact"),
            joins=(JoinCondition("dim", "id", "fact", "dim_id"),),
        )
        with pytest.raises(ExecutionError):
            _join_all(
                join_catalog,
                query,
                _scanned(join_catalog, query),
                list(query.joins),
                max_intermediate_rows=10,
            )

    def test_bad_join_order_rejected(self, join_catalog):
        query = CardQuery(
            tables=("dim", "fact", "fact2"),
            joins=(
                JoinCondition("dim", "id", "fact", "dim_id"),
                JoinCondition("dim", "id", "fact2", "dim_id"),
            ),
        )
        plan = PhysicalPlan(query=query, join_order=list(query.joins)[:1])
        with pytest.raises(ExecutionError, match="1 steps for 2 joins"):
            Executor(join_catalog).execute(plan)

    def test_intermediate_sizes_recorded(self, join_catalog):
        query = CardQuery(
            tables=("dim", "fact", "fact2"),
            joins=(
                JoinCondition("dim", "id", "fact", "dim_id"),
                JoinCondition("dim", "id", "fact2", "dim_id"),
            ),
        )
        execution = _join_all(
            join_catalog, query, _scanned(join_catalog, query), list(query.joins)
        )
        assert len(execution.intermediate_sizes) == 2
        assert execution.intermediate_sizes[-1] == execution.result_rows


class TestHashAggregate:
    def _group_query(self, keys):
        return CardQuery(
            tables=("dim", "fact"),
            joins=(JoinCondition("dim", "id", "fact", "dim_id"),),
            group_by=keys,
        )

    def _tuples(self, catalog, query):
        return _join_all(
            catalog, query, _scanned(catalog, query), list(query.joins)
        ).tuples

    def test_group_count_matches_truth(self, join_catalog):
        query = self._group_query((("dim", "grp"),))
        result = hash_aggregate(
            join_catalog, query, self._tuples(join_catalog, query), None
        )
        assert result.groups == true_group_ndv(join_catalog, query)

    def test_multi_key_groups(self, join_catalog):
        query = self._group_query((("dim", "grp"), ("fact", "val")))
        result = hash_aggregate(
            join_catalog, query, self._tuples(join_catalog, query), None
        )
        assert result.groups == true_group_ndv(join_catalog, query)

    def test_presizing_eliminates_resizes(self, join_catalog):
        query = self._group_query((("dim", "grp"), ("fact", "val")))
        tuples = self._tuples(join_catalog, query)
        truth = true_group_ndv(join_catalog, query)
        defaulted = hash_aggregate(
            join_catalog, query, tuples, None, default_capacity=16
        )
        presized = hash_aggregate(join_catalog, query, tuples, float(truth))
        assert presized.resize_count == 0
        assert defaulted.resize_count > 0
        assert presized.groups == defaulted.groups

    def test_requires_group_by(self, join_catalog):
        query = CardQuery(
            tables=("dim", "fact"),
            joins=(JoinCondition("dim", "id", "fact", "dim_id"),),
        )
        with pytest.raises(ExecutionError):
            hash_aggregate(join_catalog, query, self._tuples(join_catalog, query), None)

    def test_empty_join_result(self, join_catalog):
        query = self._group_query((("dim", "grp"),))
        empty = {t: np.empty(0, dtype=np.int64) for t in query.tables}
        result = hash_aggregate(join_catalog, query, empty, None)
        assert result.groups == 0
        assert result.resize_count == 0
