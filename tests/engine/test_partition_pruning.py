"""Tests for zone-map partition pruning and the partitioned-scan driver."""

import numpy as np
import pytest

from repro.engine import (
    EngineConfig,
    EngineSession,
    EstimatorSuite,
    Optimizer,
    ReaderKind,
    explain_result,
    multi_stage_scan,
    partitioned_scan,
    single_stage_scan,
)
from repro.estimators.traditional import SelingerEstimator, SketchNdvEstimator
from repro.obs import MetricsRegistry
from repro.sql.query import CardQuery, JoinCondition, PredicateOp, TablePredicate
from repro.storage import (
    Catalog,
    IOCounter,
    Table,
    partition_refuted,
    prune_partitions,
)
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
        io = IOCounter()
        result = partitioned_scan(table, query, ["payload"], io)
        expected = np.flatnonzero(table_mask(table, query))
        assert np.array_equal(result.row_indices, expected)
        # An unpruned single-stage scan reads every block of key and payload.
        full_blocks = sum(p.num_blocks for p in table.partitions()) * 2
        assert io.blocks_read < full_blocks
        assert result.partitions_pruned >= 2

    def test_single_partition_table_unchanged(self):
        table = _clustered_table(partitions=1)
        query = _query(TablePredicate("t", "key", PredicateOp.GE, 900.0))
        io = IOCounter()
        result = partitioned_scan(table, query, ["payload"], io)
        assert result.partitions_scanned == 1
        assert result.partitions_pruned == 0

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


class TestExecutorPruning:
    """The executor's scan is the one place that prunes; every surviving
    partition is scanned with the plan's table-level reader."""

    @staticmethod
    def _catalog(*tables):
        catalog = Catalog()
        for table in tables or (_clustered_table(),):
            catalog.register(table)
        return catalog

    @staticmethod
    def _session(catalog, **config):
        suite = EstimatorSuite(
            "sketch", SelingerEstimator(catalog), SketchNdvEstimator(catalog)
        )
        return EngineSession(catalog, suite, EngineConfig(**config))

    @classmethod
    def _plan_and_run(cls, query=None, catalog=None, **config):
        catalog = catalog if catalog is not None else cls._catalog()
        # Keys are sorted over [0, 1000): only partition 0 holds key <= 100.
        if query is None:
            query = _query(TablePredicate("t", "key", PredicateOp.LE, 100.0))
        session = cls._session(catalog, **config)
        plan = session.optimizer.plan(query)
        return plan, session.executor.execute(plan)

    @classmethod
    def _run(cls, query=None, catalog=None, **config):
        return cls._plan_and_run(query, catalog, **config)[1]

    def test_single_partition_table_renders_no_partitions(self):
        result = self._run(catalog=self._catalog(_clustered_table(partitions=1)))
        scan = result.scans["t"]
        assert (scan.partitions_scanned, scan.pruned_partition_indices) == (1, ())
        assert "partitions" not in explain_result(result)

    def test_catalog_defaults_to_the_estimators(self):
        catalog = self._catalog()
        optimizer = Optimizer(
            SelingerEstimator(catalog), SketchNdvEstimator(catalog), EngineConfig()
        )
        assert optimizer.catalog is catalog
        plan = optimizer.plan(
            _query(TablePredicate("t", "key", PredicateOp.LE, 100.0))
        )
        assert plan.estimated_table_rows["t"] == pytest.approx(
            plan.table_selectivities["t"] * len(catalog.table("t"))
        )

    def test_predicate_off_the_clustering_column_prunes_nothing(self):
        result = self._run(_query(TablePredicate("t", "noise", PredicateOp.LT, 50.0)))
        scan = result.scans["t"]
        assert scan.pruned_partition_indices == ()
        assert scan.partitions_scanned == 4
        assert "partitions 4/4 (0 pruned)" in explain_result(result)

    def test_unsatisfiable_predicate_prunes_every_partition(self):
        result = self._run(_query(TablePredicate("t", "key", PredicateOp.LT, 0.0)))
        scan = result.scans["t"]
        assert scan.pruned_partition_indices == (0, 1, 2, 3)
        assert scan.partitions_scanned == 0
        assert result.blocks_read == 0

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
        query = _query(or_groups=(group,))
        result = self._run(query, catalog=self._catalog(table))
        assert result.scans["t"].pruned_partition_indices == (1, 2)
        expected = np.flatnonzero(table_mask(table, query))
        assert np.array_equal(result.scans["t"].row_indices, expected)

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
        result = self._run(query, catalog=self._catalog(_clustered_table(), other))
        assert result.scans["t"].pruned_partition_indices == (1, 2, 3)
        assert result.scans["u"].pruned_partition_indices == ()
        assert result.scans["u"].partitions_scanned == 2

    def test_partitioning_leaves_the_table_decisions_unchanged(self):
        query = _query(
            TablePredicate("t", "key", PredicateOp.LE, 100.0),
            TablePredicate("t", "noise", PredicateOp.LT, 50.0),
        )
        partitioned, _ = self._plan_and_run(query)
        whole, _ = self._plan_and_run(
            query, catalog=self._catalog(_clustered_table(partitions=1))
        )
        assert partitioned.readers == whole.readers
        assert partitioned.column_orders == whole.column_orders
        assert partitioned.table_selectivities == whole.table_selectivities
        assert partitioned.estimated_table_rows == whole.estimated_table_rows

    def test_scan_prunes_against_appended_partition(self):
        table = _clustered_table()
        catalog = self._catalog(table)
        table.append_rows(
            {
                "key": np.arange(2000, 2500),
                "noise": np.zeros(500, dtype=np.int64),
                "payload": np.zeros(500, dtype=np.int64),
            }
        )
        result = self._run(
            _query(TablePredicate("t", "key", PredicateOp.GE, 2000.0)),
            catalog=catalog,
        )
        scan = result.scans["t"]
        assert scan.pruned_partition_indices == (0, 1, 2, 3)
        assert scan.partitions_scanned == 1
        assert result.result_rows == 500

    def test_scan_prunes_partition_emptied_by_delete(self):
        table = _clustered_table()
        catalog = self._catalog(table)
        first_hi = table.zone_map(0, "key").max_value
        table.delete_where(TablePredicate("t", "key", PredicateOp.LE, first_hi))
        assert table.partition(0).num_rows == 0
        result = self._run(
            _query(TablePredicate("t", "noise", PredicateOp.LT, 50.0)),
            catalog=catalog,
        )
        assert result.scans["t"].pruned_partition_indices == (0,)
        assert result.scans["t"].partitions_scanned == 3

    @pytest.mark.parametrize(
        "predicate",
        [
            TablePredicate("t", "key", PredicateOp.LE, 100.0),
            TablePredicate("t", "key", PredicateOp.BETWEEN, (400.0, 600.0)),
            TablePredicate("t", "noise", PredicateOp.EQ, 7.0),
        ],
        ids=["head", "middle", "unclustered"],
    )
    def test_executor_prunes_what_zone_maps_refute(self, predicate):
        catalog = self._catalog()
        query = _query(predicate)
        _survivors, refuted = prune_partitions(catalog.table("t"), query)
        scan = self._run(query, catalog=catalog).scans["t"]
        assert scan.pruned_partition_indices == tuple(refuted)
        assert scan.partitions_scanned == 4 - len(refuted)

    @pytest.mark.parametrize(
        "threshold, reader",
        [(1.0, ReaderKind.MULTI_STAGE), (0.0, ReaderKind.SINGLE_STAGE)],
        ids=["multi_stage", "single_stage"],
    )
    def test_every_surviving_partition_uses_the_table_reader(
        self, threshold, reader
    ):
        catalog = self._catalog()
        table = catalog.table("t")
        query = _query(
            TablePredicate("t", "key", PredicateOp.GE, 300.0),
            TablePredicate("t", "noise", PredicateOp.LT, 50.0),
        )
        plan, result = self._plan_and_run(
            query, catalog=catalog, reader_selectivity_threshold=threshold
        )
        assert plan.readers["t"] is reader
        survivors, _pruned = prune_partitions(table, query)
        assert len(survivors) >= 2
        # Scanning each survivor with the table's reader by hand charges
        # exactly the blocks the executor charged.
        order = plan.column_orders.get("t")
        direct = [
            multi_stage_scan(table, query, [], IOCounter(), p, column_order=order)
            if reader is ReaderKind.MULTI_STAGE
            else single_stage_scan(table, query, [], IOCounter(), p)
            for p in survivors
        ]
        scan = result.scans["t"]
        assert scan.reader is reader
        assert scan.blocks_read == sum(d.blocks_read for d in direct)
        assert scan.random_blocks == sum(d.random_blocks for d in direct)
        expected = np.flatnonzero(table_mask(table, query))
        assert np.array_equal(scan.row_indices, expected)

    def test_pruning_saves_blocks_without_changing_results(self):
        catalog = self._catalog()
        table = catalog.table("t")
        query = _query(TablePredicate("t", "key", PredicateOp.GE, 900.0))
        plan, result = self._plan_and_run(
            query, catalog=catalog, reader_selectivity_threshold=0.0
        )
        assert plan.readers["t"] is ReaderKind.SINGLE_STAGE
        expected = np.flatnonzero(table_mask(table, query))
        assert result.result_rows == expected.size
        assert np.array_equal(result.scans["t"].row_indices, expected)
        # An unpruned single-stage scan reads every block of its one column.
        full_blocks = sum(p.num_blocks for p in table.partitions())
        assert result.blocks_read < full_blocks

    def test_explain_result_renders_scanned_and_pruned_partitions(self):
        rendered = explain_result(self._run())
        assert "partitions 1/4 (3 pruned: 1, 2, 3)" in rendered

    def test_explain_result_lists_pruned_indices_in_partition_order(self):
        query = _query(TablePredicate("t", "key", PredicateOp.BETWEEN, (400.0, 600.0)))
        result = self._run(query)
        pruned = result.scans["t"].pruned_partition_indices
        assert pruned and list(pruned) == sorted(pruned)
        rendered = explain_result(result)
        assert f"pruned: {', '.join(map(str, pruned))})" in rendered
