"""Property tests for the join build/probe kernel and GROUP BY grouping.

``hash_join_step`` is checked against a nested-loop join (same tuples in
the same order, same cost-model counts) on both build paths -- the
counting sort for integer keys spanning at most 65,536 values and the
``argsort`` + ``searchsorted`` fallback -- and the grouping inside
``hash_aggregate`` against ``np.unique`` over the stacked key columns.  The
last class guards the kernels' Python cost: it must not grow with rows.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import hash_aggregate
from repro.engine.join import JoinExecution, hash_join_step
from repro.errors import ExecutionError
from repro.sql.query import AggKind, AggSpec, CardQuery, JoinCondition
from repro.storage import Catalog, Table

JOIN = JoinCondition("old", "k", "new", "k")
INT64 = np.iinfo(np.int64)


def _catalog(old_keys, new_keys) -> Catalog:
    catalog = Catalog()
    catalog.register(Table.from_arrays("old", {"k": np.asarray(old_keys)}))
    catalog.register(Table.from_arrays("new", {"k": np.asarray(new_keys)}))
    return catalog


def _join(old_keys, new_keys, max_intermediate_rows=30_000_000):
    """One step joining every row of ``new`` into an intermediate that
    holds each ``old`` row once, next to an already-joined ``side`` table."""
    catalog = _catalog(old_keys, new_keys)
    old_rows = np.arange(len(old_keys))
    execution = JoinExecution(tuples={"old": old_rows, "side": old_rows[::-1].copy()})
    scanned = {"new": np.arange(len(new_keys))}
    hash_join_step(catalog, execution, JOIN, scanned, max_intermediate_rows)
    return execution


def _nested_loop(old_keys, new_keys):
    """Probe rows in intermediate order; each one's matches in build order."""
    pairs = [
        (i, j)
        for i, probe in enumerate(old_keys)
        for j, build in enumerate(new_keys)
        if probe == build
    ]
    old = np.array([i for i, _ in pairs], dtype=np.int64)
    side = len(old_keys) - 1 - old
    return {"old": old, "side": side, "new": np.array([j for _, j in pairs], dtype=np.int64)}


def _assert_matches_nested_loop(old_keys, new_keys):
    execution = _join(old_keys, new_keys)
    expected = _nested_loop(old_keys, new_keys)
    assert set(execution.tuples) == set(expected)
    for table, rows in expected.items():
        np.testing.assert_array_equal(execution.tuples[table], rows, err_msg=table)
    assert execution.build_rows == len(new_keys)
    assert execution.probe_rows == len(old_keys)
    assert execution.intermediate_sizes == [len(expected["new"])]


CASES = {
    "empty build": ([1, 2, 3], []),
    "empty probe": ([], [1, 2, 3]),
    "both empty": ([], []),
    "no matches": ([1, 2, 3], [4, 5, 6]),
    "duplicates on both sides": ([2, 1, 2, 3, 2], [2, 2, 1, 5, 2, 1]),
    "negative keys": ([-3, -1, 0, -3, 7], [-1, -3, -3, 2, -1]),
    "probes outside the build range": ([-9, 0, 5, 6, 70_000], [5, 1, 5, 3]),
    "build range at the dense limit": ([0, 65_535, 3], [65_535, 0, 0]),
    "span over 65,536 (fallback)": ([0, 65_536, 3, 0], [65_536, 0, 3, 0]),
    "keys near the int64 limits": (
        [INT64.min, INT64.max, 0, INT64.max],
        [INT64.max, INT64.min, INT64.max],
    ),
    "dense build, probes at the int64 limits": (
        [INT64.min, 4, INT64.max, 2],
        [2, 4, 4],
    ),
    "float keys": ([0.5, -1.25, 0.5, 2.0], [0.5, 2.0, -1.25, 0.5]),
}


class TestHashJoinStep:
    @pytest.mark.parametrize("old_keys,new_keys", CASES.values(), ids=CASES.keys())
    def test_matches_nested_loop(self, old_keys, new_keys):
        _assert_matches_nested_loop(old_keys, new_keys)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_integer_keys_match_nested_loop(self, data):
        # Narrow pools exercise the counting-sort build, wide ones the
        # fallback; drawing both sides from one pool makes matches likely.
        bound = data.draw(st.sampled_from([3, 40, 40_000, 1 << 40]))
        values = st.integers(-bound, bound)
        pool = data.draw(st.lists(values, min_size=1, max_size=6))
        keys = st.one_of(st.sampled_from(pool), values)
        old_keys = data.draw(st.lists(keys, max_size=25))
        new_keys = data.draw(st.lists(keys, max_size=25))
        _assert_matches_nested_loop(old_keys, new_keys)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_float_keys_match_nested_loop(self, data):
        values = st.floats(-1e6, 1e6, allow_nan=False)
        pool = data.draw(st.lists(values, min_size=1, max_size=6))
        keys = st.one_of(st.sampled_from(pool), values)
        old_keys = data.draw(st.lists(keys, min_size=1, max_size=25))
        new_keys = data.draw(st.lists(keys, min_size=1, max_size=25))
        _assert_matches_nested_loop(
            np.asarray(old_keys, dtype=np.float64), np.asarray(new_keys, dtype=np.float64)
        )

    @pytest.mark.parametrize("key", [7, 1 << 40], ids=["dense", "fallback"])
    def test_cap_raises_before_materializing(self, key):
        # 10^5 x 10^5 matching rows would be 10^10 output rows (80 GB per
        # table): the cap must fire on the counts alone.
        keys = np.full(100_000, key)
        catalog = _catalog(keys, keys)
        rows = np.arange(keys.size)
        execution = JoinExecution(tuples={"old": rows})
        with pytest.raises(ExecutionError, match="exceeds the cap"):
            hash_join_step(catalog, execution, JOIN, {"new": rows}, 1_000_000)
        assert set(execution.tuples) == {"old"}
        assert execution.tuples["old"] is rows
        assert execution.intermediate_sizes == []
        assert execution.build_rows == execution.probe_rows == 0

    def test_non_extending_step_rejected(self):
        catalog = _catalog([1], [1])
        execution = JoinExecution(tuples={"side": np.arange(1)})
        with pytest.raises(ExecutionError, match="does not extend"):
            hash_join_step(catalog, execution, JOIN, {"new": np.arange(1)})


def _group_catalog(key_columns, target) -> Catalog:
    arrays = {f"g{i}": np.asarray(col, dtype=np.int64) for i, col in enumerate(key_columns)}
    arrays["v"] = np.asarray(target, dtype=np.float64)
    catalog = Catalog()
    catalog.register(Table.from_arrays("t", arrays))
    return catalog


def _aggregate(catalog, num_keys, kind, rows, estimated_ndv=None):
    query = CardQuery(
        tables=("t",),
        group_by=tuple(("t", f"g{i}") for i in range(num_keys)),
        agg=AggSpec(kind, "t", "v") if kind is not AggKind.COUNT else AggSpec(kind),
    )
    return hash_aggregate(catalog, query, {"t": rows}, estimated_ndv)


class TestGrouping:
    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_matches_unique_over_stacked_keys(self, data):
        num_keys = data.draw(st.integers(1, 4))
        num_rows = data.draw(st.integers(1, 40))
        values = st.one_of(
            st.integers(-3, 3),
            st.sampled_from([INT64.min, INT64.min + 1, INT64.max - 1, INT64.max]),
            st.integers(INT64.min, INT64.max),
        )
        key_columns = [
            data.draw(st.lists(values, min_size=num_rows, max_size=num_rows))
            for _ in range(num_keys)
        ]
        target = data.draw(
            st.lists(st.integers(-5, 5), min_size=num_rows, max_size=num_rows)
        )
        catalog = _group_catalog(key_columns, np.asarray(target) / 4.0)
        # Row order through the "join result" is arbitrary, repeats allowed.
        rows = np.asarray(
            data.draw(st.lists(st.integers(0, num_rows - 1), min_size=1, max_size=60))
        )

        stacked = np.asarray(key_columns, dtype=np.int64)[:, rows]
        uniques, inverse = np.unique(stacked, axis=1, return_inverse=True)
        inverse = inverse.reshape(-1)
        groups = uniques.shape[1]
        v = (np.asarray(target) / 4.0)[rows]
        sums = np.zeros(groups)
        np.add.at(sums, inverse, v)
        pairs = np.unique(np.stack([inverse.astype(np.int64), v]), axis=1)
        expected = {
            AggKind.COUNT: np.bincount(inverse, minlength=groups).astype(np.float64),
            AggKind.SUM: sums,
            AggKind.COUNT_DISTINCT: np.bincount(
                pairs[0].astype(np.int64), minlength=groups
            ).astype(np.float64),
        }
        for kind, values_expected in expected.items():
            result = _aggregate(catalog, num_keys, kind, rows)
            assert result.groups == groups
            np.testing.assert_array_equal(result.group_keys, uniques)
            assert result.group_keys.dtype == uniques.dtype
            # Bitwise: SUM accumulates in row order on both sides.
            np.testing.assert_array_equal(result.values, values_expected, err_msg=kind)


class TestPythonCostIsPerOperator:
    """The kernels make the same Python calls whatever the row counts.

    A per-row Python loop (one ``np.arange`` per probe row, say) shows up
    here as a call count that grows with the input.
    """

    @staticmethod
    def _calls(fn) -> int:
        fn()  # warm-up: first calls may import or cache
        count = 0

        def profile(frame, event, arg):
            nonlocal count
            if event in ("call", "c_call"):
                count += 1

        sys.setprofile(profile)
        try:
            fn()
        finally:
            sys.setprofile(None)
        return count

    @pytest.mark.parametrize("spread", [1, 1 << 30], ids=["dense", "fallback"])
    def test_join_step(self, spread):
        def step(rows):
            rng = np.random.default_rng(rows)
            keys = rng.integers(0, rows, rows) * spread
            catalog = _catalog(keys, keys)
            scanned = {"new": np.arange(rows)}

            def run():
                execution = JoinExecution(tuples={"old": np.arange(rows)})
                hash_join_step(catalog, execution, JOIN, scanned)
                assert execution.result_rows >= rows

            return run

        assert self._calls(step(10)) == self._calls(step(10_000))

    @pytest.mark.parametrize("kind", [AggKind.COUNT, AggKind.SUM, AggKind.COUNT_DISTINCT])
    def test_aggregate(self, kind):
        def aggregate(rows):
            rng = np.random.default_rng(rows)
            keys = [np.arange(rows), rng.integers(0, 3, rows)]
            catalog = _group_catalog(keys, rng.integers(0, 5, rows))
            tuples = np.arange(rows)

            def run():
                result = _aggregate(catalog, 2, kind, tuples)
                assert result.groups >= rows

            return run

        assert self._calls(aggregate(10)) == self._calls(aggregate(10_000))
