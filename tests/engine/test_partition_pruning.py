"""Tests for zone-map partition pruning and the partitioned-scan driver."""

import numpy as np
import pytest

from repro.engine import (
    EngineConfig,
    Executor,
    Optimizer,
    ReaderKind,
    explain_plan,
    explain_result,
    partition_refuted,
    partitioned_scan,
    prune_partitions,
)
from repro.estimators.traditional import SelingerEstimator, SketchNdvEstimator
from repro.obs import MetricsRegistry
from repro.sql.query import CardQuery, JoinCondition, PredicateOp, TablePredicate
from repro.storage import Catalog, IOCounter, Table
from repro.workloads.predicates import table_mask


def _clustered_table(rows=4000, partitions=4, block_size=100):
    """Rows clustered on 'key' so each partition owns a disjoint key range."""
    rng = np.random.default_rng(3)
    return Table.from_arrays(
        "t",
        {
            "key": np.sort(rng.integers(0, 1000, rows)),
            "noise": rng.integers(0, 100, rows),
            "payload": rng.integers(0, 1000, rows),
        },
        block_size=block_size,
        partitions=partitions,
    )


def _query(*predicates, or_groups=()):
    return CardQuery(
        tables=("t",), predicates=tuple(predicates), or_groups=tuple(or_groups)
    )


class TestPruning:
    def test_selective_predicate_prunes_most_partitions(self):
        table = _clustered_table()
        lo = float(table.zone_map(0, "key").max_value) + 1
        query = _query(TablePredicate("t", "key", PredicateOp.GE, 900.0))
        assert lo < 900.0  # sanity: the probe is above partition 0's range
        survivors, pruned = prune_partitions(table, query)
        assert len(pruned) >= 2  # >= 50% of 4 partitions refuted
        assert {p.index for p in survivors}.isdisjoint(pruned)

    def test_predicates_on_other_tables_never_prune(self):
        table = _clustered_table()
        query = CardQuery(
            tables=("t", "u"),
            joins=(JoinCondition("t", "key", "u", "key"),),
            predicates=(TablePredicate("u", "key", PredicateOp.EQ, -1.0),),
        )
        survivors, pruned = prune_partitions(table, query)
        assert len(survivors) == 4 and not pruned

    def test_or_group_prunes_only_when_all_members_refuted(self):
        table = _clustered_table()
        part0_hi = float(table.zone_map(0, "key").max_value)
        part3_lo = float(table.zone_map(3, "key").min_value)
        group = (
            TablePredicate("t", "key", PredicateOp.LE, part0_hi),
            TablePredicate("t", "key", PredicateOp.GE, part3_lo),
        )
        assert not partition_refuted(table, table.partition(0), _query(or_groups=(group,)))
        assert not partition_refuted(table, table.partition(3), _query(or_groups=(group,)))
        # A middle partition overlapping neither arm is refuted.
        middle = table.partition(1)
        mid_lo = float(table.zone_map(1, "key").min_value)
        mid_hi = float(table.zone_map(1, "key").max_value)
        if mid_lo > part0_hi and mid_hi < part3_lo:
            assert partition_refuted(table, middle, _query(or_groups=(group,)))

    def test_empty_partition_always_refuted(self):
        table = Table.from_arrays(
            "t", {"x": np.arange(10)}, partitions=[10, 0], block_size=4
        )
        assert partition_refuted(table, table.partition(1), _query())


class TestPartitionedScan:
    @pytest.mark.parametrize("reader", [ReaderKind.SINGLE_STAGE, ReaderKind.MULTI_STAGE])
    def test_matches_reference_mask(self, reader):
        table = _clustered_table()
        query = _query(
            TablePredicate("t", "key", PredicateOp.GE, 700.0),
            TablePredicate("t", "noise", PredicateOp.LT, 50.0),
        )
        io = IOCounter()
        result = partitioned_scan(
            table, query, ["payload"], io, reader=reader
        )
        expected = np.flatnonzero(table_mask(table, query))
        assert np.array_equal(result.row_indices, expected)
        assert result.partitions_scanned + result.partitions_pruned == 4

    def test_pruning_saves_block_io(self):
        table = _clustered_table()
        query = _query(TablePredicate("t", "key", PredicateOp.GE, 900.0))
        pruned_io, full_io = IOCounter(), IOCounter()
        pruned_result = partitioned_scan(table, query, ["payload"], pruned_io)
        full_result = partitioned_scan(
            table, query, ["payload"], full_io, prune=False
        )
        assert np.array_equal(pruned_result.row_indices, full_result.row_indices)
        assert pruned_io.blocks_read < full_io.blocks_read
        assert pruned_result.partitions_pruned >= 2
        assert full_result.partitions_pruned == 0

    def test_single_partition_table_unchanged(self):
        table = _clustered_table(partitions=1)
        query = _query(TablePredicate("t", "key", PredicateOp.GE, 900.0))
        io = IOCounter()
        result = partitioned_scan(table, query, ["payload"], io)
        assert result.partitions_scanned == 1
        assert result.partitions_pruned == 0
        assert result.partition_scans == []

    def test_all_partitions_pruned_yields_empty_result(self):
        table = _clustered_table()
        query = _query(TablePredicate("t", "key", PredicateOp.LT, 0.0))
        io = IOCounter()
        result = partitioned_scan(table, query, ["payload"], io)
        assert result.row_indices.size == 0
        assert result.partitions_pruned == 4
        assert io.blocks_read == 0

    def test_metrics_counters_and_histogram(self):
        table = _clustered_table()
        registry = MetricsRegistry()
        query = _query(TablePredicate("t", "key", PredicateOp.GE, 900.0))
        result = partitioned_scan(
            table, query, ["payload"], IOCounter(), registry=registry
        )
        pruned = registry.get("engine_partitions_pruned_total")
        scanned = registry.get("engine_partitions_scanned_total")
        assert pruned.value == result.partitions_pruned > 0
        assert scanned.value == result.partitions_scanned > 0
        histogram = registry.get("engine_partition_scan_seconds", table="t")
        assert histogram is not None
        assert histogram.snapshot().count == result.partitions_scanned

    def test_stage_survivors_summed_across_partitions(self):
        table = _clustered_table()
        query = _query(
            TablePredicate("t", "key", PredicateOp.GE, 500.0),
            TablePredicate("t", "noise", PredicateOp.LT, 50.0),
        )
        result = partitioned_scan(
            table,
            query,
            ["payload"],
            IOCounter(),
            reader=ReaderKind.MULTI_STAGE,
            column_order=["key", "noise"],
        )
        assert result.stage_survivors
        assert result.stage_survivors[-1] == result.row_indices.size


class TestPlanTimePruning:
    """The optimizer prunes partitions at plan time and reports survivors;
    every survivor is scanned with the table-level reader."""

    @staticmethod
    def _optimizer(catalog, **config):
        return Optimizer(
            SelingerEstimator(catalog),
            SketchNdvEstimator(catalog),
            EngineConfig(**config),
            catalog=catalog,
        )

    @staticmethod
    def _catalog(*tables):
        catalog = Catalog()
        for table in tables or (_clustered_table(),):
            catalog.register(table)
        return catalog

    @classmethod
    def _plan(cls, query=None, catalog=None, **config):
        catalog = catalog if catalog is not None else cls._catalog()
        # Keys are sorted over [0, 1000): only partition 0 holds key <= 100.
        if query is None:
            query = _query(TablePredicate("t", "key", PredicateOp.LE, 100.0))
        return cls._optimizer(catalog, **config).plan(query)

    def test_plan_records_partition_counts_and_pruned(self):
        plan = self._plan()
        assert plan.partition_counts["t"] == 4
        assert plan.pruned_partitions["t"] == (1, 2, 3)
        assert "partitions:t" in plan.decision_timings

    def test_pruning_disabled_skips_partition_planning(self):
        plan = self._plan(partition_pruning=False)
        assert "t" not in plan.partition_counts
        assert "t" not in plan.pruned_partitions
        assert "partitions:t" not in plan.decision_timings

    def test_explain_plan_renders_partition_pruning(self):
        rendered = explain_plan(self._plan())
        assert "partitions: 1/4 survive zone-map pruning" in rendered
        assert "(pruned: 1, 2, 3)" in rendered

    def test_single_partition_table_skips_partition_planning(self):
        plan = self._plan(catalog=self._catalog(_clustered_table(partitions=1)))
        assert plan.partition_counts == {}
        assert plan.pruned_partitions == {}
        assert "partitions:t" not in plan.decision_timings
        assert "partitions:" not in explain_plan(plan)

    def test_catalog_defaults_to_the_estimators(self):
        catalog = self._catalog()
        optimizer = Optimizer(
            SelingerEstimator(catalog), SketchNdvEstimator(catalog), EngineConfig()
        )
        assert optimizer.catalog is catalog
        plan = optimizer.plan(
            _query(TablePredicate("t", "key", PredicateOp.LE, 100.0))
        )
        assert plan.pruned_partitions["t"] == (1, 2, 3)

    def test_predicate_off_the_clustering_column_prunes_nothing(self):
        plan = self._plan(_query(TablePredicate("t", "noise", PredicateOp.LT, 50.0)))
        assert plan.partition_counts["t"] == 4
        assert plan.pruned_partitions["t"] == ()
        rendered = explain_plan(plan)
        assert "partitions: 4/4 survive zone-map pruning" in rendered
        assert "(pruned:" not in rendered

    def test_unsatisfiable_predicate_prunes_every_partition(self):
        plan = self._plan(_query(TablePredicate("t", "key", PredicateOp.LT, 0.0)))
        assert plan.pruned_partitions["t"] == (0, 1, 2, 3)
        assert "partitions: 0/4 survive zone-map pruning" in explain_plan(plan)

    def test_or_group_prunes_partitions_outside_both_arms(self):
        table = _clustered_table()
        # Neighbouring partitions may share a boundary key, so each arm
        # stays well inside its end partition.
        group = (
            TablePredicate(
                "t", "key", PredicateOp.LE, table.zone_map(0, "key").min_value + 10
            ),
            TablePredicate(
                "t", "key", PredicateOp.GE, table.zone_map(3, "key").max_value - 10
            ),
        )
        plan = self._plan(
            _query(or_groups=(group,)), catalog=self._catalog(table)
        )
        assert plan.pruned_partitions["t"] == (1, 2)

    def test_join_prunes_each_table_from_its_own_predicates(self):
        rng = np.random.default_rng(5)
        other = Table.from_arrays(
            "u",
            {"key": np.sort(rng.integers(0, 1000, 2000))},
            block_size=100,
            partitions=2,
        )
        query = CardQuery(
            tables=("t", "u"),
            joins=(JoinCondition("t", "key", "u", "key"),),
            predicates=(TablePredicate("t", "key", PredicateOp.LE, 100.0),),
        )
        plan = self._plan(query, catalog=self._catalog(_clustered_table(), other))
        assert plan.pruned_partitions == {"t": (1, 2, 3), "u": ()}
        assert plan.partition_counts == {"t": 4, "u": 2}
        assert {"partitions:t", "partitions:u"} <= set(plan.decision_timings)

    def test_partitioning_leaves_the_table_decisions_unchanged(self):
        query = _query(
            TablePredicate("t", "key", PredicateOp.LE, 100.0),
            TablePredicate("t", "noise", PredicateOp.LT, 50.0),
        )
        partitioned = self._plan(query)
        whole = self._plan(
            query, catalog=self._catalog(_clustered_table(partitions=1))
        )
        assert partitioned.readers == whole.readers
        assert partitioned.column_orders == whole.column_orders
        assert partitioned.table_selectivities == whole.table_selectivities
        assert partitioned.estimated_table_rows == whole.estimated_table_rows

    def test_plan_sees_appended_partition(self):
        table = _clustered_table()
        catalog = self._catalog(table)
        table.append_rows(
            {
                "key": np.arange(2000, 2500),
                "noise": np.zeros(500, dtype=np.int64),
                "payload": np.zeros(500, dtype=np.int64),
            }
        )
        plan = self._plan(
            _query(TablePredicate("t", "key", PredicateOp.GE, 2000.0)),
            catalog=catalog,
        )
        assert plan.partition_counts["t"] == 5
        assert plan.pruned_partitions["t"] == (0, 1, 2, 3)

    def test_plan_prunes_partition_emptied_by_delete(self):
        table = _clustered_table()
        catalog = self._catalog(table)
        first_hi = table.zone_map(0, "key").max_value
        table.delete_where(TablePredicate("t", "key", PredicateOp.LE, first_hi))
        assert table.partition(0).num_rows == 0
        plan = self._plan(
            _query(TablePredicate("t", "noise", PredicateOp.LT, 50.0)),
            catalog=catalog,
        )
        assert plan.partition_counts["t"] == 4
        assert plan.pruned_partitions["t"] == (0,)

    @pytest.mark.parametrize(
        "predicate",
        [
            TablePredicate("t", "key", PredicateOp.LE, 100.0),
            TablePredicate("t", "key", PredicateOp.BETWEEN, (400.0, 600.0)),
            TablePredicate("t", "noise", PredicateOp.EQ, 7.0),
        ],
        ids=["head", "middle", "unclustered"],
    )
    def test_executor_prunes_what_the_plan_reports(self, predicate):
        catalog = self._catalog()
        plan = self._plan(_query(predicate), catalog=catalog)
        result = Executor(catalog, EngineConfig()).execute(plan)
        scan = result.scans["t"]
        assert scan.pruned_partition_indices == plan.pruned_partitions["t"]
        assert scan.partitions_scanned == 4 - len(plan.pruned_partitions["t"])

    @pytest.mark.parametrize(
        "threshold, reader",
        [(1.0, ReaderKind.MULTI_STAGE), (0.0, ReaderKind.SINGLE_STAGE)],
        ids=["multi_stage", "single_stage"],
    )
    def test_every_surviving_partition_uses_the_table_reader(
        self, threshold, reader
    ):
        catalog = self._catalog()
        query = _query(
            TablePredicate("t", "key", PredicateOp.GE, 300.0),
            TablePredicate("t", "noise", PredicateOp.LT, 50.0),
        )
        plan = self._plan(
            query, catalog=catalog, reader_selectivity_threshold=threshold
        )
        assert plan.readers["t"] is reader
        result = Executor(catalog, EngineConfig()).execute(plan)
        scans = result.scans["t"].partition_scans
        assert len(scans) == 4 - len(plan.pruned_partitions["t"]) >= 2
        assert all(scan.reader is reader for scan in scans)
        expected = np.flatnonzero(table_mask(catalog.table("t"), query))
        assert np.array_equal(result.scans["t"].row_indices, expected)

    def test_pruning_saves_blocks_without_changing_results(self):
        catalog = self._catalog()
        query = _query(TablePredicate("t", "key", PredicateOp.GE, 900.0))
        results = {}
        for pruning in (True, False):
            config = {"partition_pruning": pruning}
            plan = self._plan(query, catalog=catalog, **config)
            results[pruning] = Executor(catalog, EngineConfig(**config)).execute(plan)
        assert results[True].result_rows == results[False].result_rows
        assert np.array_equal(
            results[True].scans["t"].row_indices,
            results[False].scans["t"].row_indices,
        )
        assert results[True].blocks_read < results[False].blocks_read

    def test_explain_result_renders_scanned_and_pruned_partitions(self):
        catalog = self._catalog()
        plan = self._plan(catalog=catalog)
        rendered = explain_result(Executor(catalog, EngineConfig()).execute(plan))
        assert "partitions 1/4 (3 pruned)" in rendered
