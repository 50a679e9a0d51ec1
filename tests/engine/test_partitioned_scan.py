"""The partitioned-scan driver: pruning, merging, accounting and the
pruning switch."""

import numpy as np
import pytest

from repro.engine import EngineConfig, EngineSession, EstimatorSuite, partitioned_scan
from repro.engine.partitioned import partition_refuted, prune_partitions
from repro.engine.readers import ReaderKind
from repro.estimators.traditional import SelingerEstimator, SketchNdvEstimator
from repro.obs.metrics import MetricsRegistry
from repro.sql.query import CardQuery, JoinCondition, PredicateOp, TablePredicate
from repro.storage import Catalog, Column, ColumnType, IOCounter, Table
from repro.workloads.predicates import predicate_mask


def _partitioned_table(rows=8000, partitions=8, block_size=200, seed=17):
    rng = np.random.default_rng(seed)
    return Table.from_arrays(
        "events",
        {
            "ts": np.sort(rng.integers(0, 10_000, rows)),
            "kind": rng.integers(0, 8, rows),
            "value": rng.integers(0, 1_000, rows),
        },
        block_size=block_size,
        partitions=partitions,
    )


def _workload(seed=29, count=12):
    rng = np.random.default_rng(seed)
    queries = []
    for index in range(count):
        lo = float(rng.integers(0, 9_000))
        queries.append(
            CardQuery(
                tables=("events",),
                predicates=(
                    TablePredicate("events", "ts", PredicateOp.GE, lo),
                    TablePredicate("events", "ts", PredicateOp.LE, lo + 1_500.0),
                    TablePredicate(
                        "events", "kind", PredicateOp.LE, float(rng.integers(1, 8))
                    ),
                ),
                name=f"q{index}",
            )
        )
    return queries


def _session(table, config=None):
    catalog = Catalog()
    catalog.register(table)
    suite = EstimatorSuite(
        "sketch", SelingerEstimator(catalog), SketchNdvEstimator(catalog)
    )
    return EngineSession(catalog, suite, config or EngineConfig())


def _expected_rows(table, query):
    """Row indices a predicate-by-predicate numpy filter selects."""
    mask = np.ones(len(table), dtype=bool)
    for pred in query.predicates:
        mask &= predicate_mask(table.column(pred.column).values, pred)
    return np.flatnonzero(mask)


class TestScanDeterminism:
    def test_repeated_runs_are_stable(self):
        table = _partitioned_table()
        query = _workload(count=1)[0]
        baselines = None
        for _ in range(3):
            io = IOCounter()
            result = partitioned_scan(table, query, ["value"], io)
            current = (result.row_indices.tobytes(), io.blocks_read, io.bytes_read)
            if baselines is None:
                baselines = current
            assert current == baselines

    def test_full_workload_through_sessions(self):
        """Partitioning changes I/O, never the rows a query returns."""
        partitioned = _session(_partitioned_table())
        whole = _session(_partitioned_table(partitions=None))
        for query in _workload():
            part = partitioned.run(query)
            one = whole.run(query)
            assert part.result_rows == one.result_rows
            assert np.array_equal(
                part.scans["events"].row_indices, one.scans["events"].row_indices
            )
            assert part.blocks_read <= one.blocks_read

    @pytest.mark.parametrize("partitions", [2, 3, 8, 16])
    def test_rows_independent_of_partition_count(self, partitions):
        table = _partitioned_table(partitions=partitions)
        for query in _workload(count=4):
            result = partitioned_scan(table, query, ["value"], IOCounter())
            assert np.array_equal(result.row_indices, _expected_rows(table, query))
            assert result.row_indices.dtype == np.int64

    @pytest.mark.parametrize("reader", list(ReaderKind))
    def test_pruning_preserves_rows_and_saves_blocks(self, reader):
        table = _partitioned_table()
        for query in _workload(count=4):
            pruned = partitioned_scan(
                table, query, ["value"], IOCounter(), reader=reader
            )
            full = partitioned_scan(
                table, query, ["value"], IOCounter(), reader=reader, prune=False
            )
            assert np.array_equal(pruned.row_indices, full.row_indices)
            assert pruned.partitions_pruned > 0
            assert full.partitions_pruned == 0
            assert full.partitions_scanned == table.num_partitions
            assert pruned.blocks_read < full.blocks_read


class TestPruning:
    def test_fully_refuted_query_reads_nothing(self):
        table = _partitioned_table()
        query = CardQuery(
            tables=("events",),
            predicates=(TablePredicate("events", "ts", PredicateOp.LT, 0.0),),
        )
        io = IOCounter()
        result = partitioned_scan(table, query, ["value"], io)
        assert result.partitions_scanned == 0
        assert result.partitions_pruned == 8
        assert result.pruned_partition_indices == tuple(range(8))
        assert result.row_indices.size == 0
        assert result.row_indices.dtype == np.int64
        assert result.blocks_read == 0
        assert io.blocks_read == 0 and io.bytes_read == 0

    def test_pruned_indices_are_in_partition_order(self):
        table = _partitioned_table()
        # ts is sorted, so a middle window refutes a prefix and a suffix.
        query = CardQuery(
            tables=("events",),
            predicates=(
                TablePredicate("events", "ts", PredicateOp.GE, 4_000.0),
                TablePredicate("events", "ts", PredicateOp.LE, 5_000.0),
            ),
        )
        survivors, pruned = prune_partitions(table, query)
        assert pruned == sorted(pruned)
        kept = [p.index for p in survivors]
        assert kept == list(range(kept[0], kept[-1] + 1))
        assert sorted(kept + pruned) == list(range(8))
        assert 0 in pruned and 7 in pruned

    def test_empty_partition_is_refuted(self):
        table = Table.from_arrays(
            "events", {"ts": np.arange(100)}, block_size=10, partitions=[50, 0, 50]
        )
        query = CardQuery(tables=("events",))
        assert partition_refuted(table, table.partition(1), query)
        assert not partition_refuted(table, table.partition(0), query)
        _, pruned = prune_partitions(table, query)
        assert pruned == [1]

    def test_predicates_on_other_tables_are_ignored(self):
        table = _partitioned_table()
        query = CardQuery(
            tables=("events", "other"),
            joins=(JoinCondition("events", "kind", "other", "kind"),),
            predicates=(TablePredicate("other", "ts", PredicateOp.LT, 0.0),),
        )
        survivors, pruned = prune_partitions(table, query)
        assert pruned == []
        assert len(survivors) == 8

    def test_or_group_refuted_only_when_every_member_is(self):
        table = _partitioned_table()
        low = TablePredicate("events", "ts", PredicateOp.LT, 500.0)
        high = TablePredicate("events", "ts", PredicateOp.GT, 9_500.0)
        query = CardQuery(tables=("events",), or_groups=((low, high),))
        survivors, pruned = prune_partitions(table, query)
        kept = [p.index for p in survivors]
        assert kept[0] == 0 and kept[-1] == 7
        assert pruned and all(0 < index < 7 for index in pruned)
        result = partitioned_scan(table, query, ["value"], IOCounter())
        ts = table.column("ts").values
        expected = np.flatnonzero((ts < 500) | (ts > 9_500))
        assert np.array_equal(result.row_indices, expected)


class TestMerge:
    def test_multi_stage_survivors_sum_over_partitions(self):
        table = _partitioned_table()
        query = _workload(count=1)[0]
        result = partitioned_scan(
            table,
            query,
            ["value"],
            IOCounter(),
            reader=ReaderKind.MULTI_STAGE,
            column_order=["ts", "kind"],
        )
        scans = result.partition_scans
        assert len(scans) == result.partitions_scanned
        assert result.blocks_read == sum(s.blocks_read for s in scans)
        assert result.rows_scanned == sum(s.rows_scanned for s in scans)
        assert result.random_blocks == sum(s.random_blocks for s in scans)
        for stage, survivors in enumerate(result.stage_survivors):
            assert survivors == sum(s.stage_survivors[stage] for s in scans)
        assert result.stage_survivors[-1] == result.row_indices.size

    def test_single_partition_lists_no_partition_scans(self):
        table = _partitioned_table(partitions=None)
        result = partitioned_scan(
            table, _workload(count=1)[0], ["value"], IOCounter()
        )
        assert result.partition_scans == []
        assert result.partitions_scanned == 1

    def test_registry_counts_scanned_and_pruned_partitions(self):
        table = _partitioned_table()
        registry = MetricsRegistry()
        query = _workload(count=1)[0]
        result = partitioned_scan(
            table, query, ["value"], IOCounter(), registry=registry
        )
        scanned = registry.get("engine_partitions_scanned_total").value
        pruned = registry.get("engine_partitions_pruned_total").value
        assert scanned == result.partitions_scanned
        assert pruned == result.partitions_pruned
        assert scanned + pruned == 8
        timings = registry.get("engine_partition_scan_seconds", table="events")
        assert timings.count == result.partitions_scanned

    def test_disabled_registry_records_nothing(self):
        registry = MetricsRegistry(enabled=False)
        partitioned_scan(
            _partitioned_table(),
            _workload(count=1)[0],
            ["value"],
            IOCounter(),
            registry=registry,
        )
        assert len(registry) == 0


class TestScanAccounting:
    def test_dictionary_columns_charged_once_across_partitions(self):
        rng = np.random.default_rng(5)
        words = np.array(["alpha", "beta", "gamma", "delta"])
        labels = words[rng.integers(0, 4, 4000)]
        table = Table(
            "tagged",
            [
                Column("ts", ColumnType.INT, np.sort(rng.integers(0, 1000, 4000))),
                Column.from_strings("label", list(labels)),
            ],
            block_size=100,
            partitions=4,
        )
        query = CardQuery(
            tables=("tagged",),
            predicates=(TablePredicate("tagged", "ts", PredicateOp.GE, 0.0),),
        )
        io = IOCounter()
        result = partitioned_scan(table, query, ["label"], io)
        assert result.partitions_scanned == 4
        assert len(io.dict_charges) == 1  # one charge for tagged.label
        label_blocks = io.per_column[("tagged", "label")]
        one_partition = IOCounter()
        partitioned_scan(
            Table(
                "tagged",
                [
                    Column("ts", ColumnType.INT, table.column("ts").values),
                    Column.from_strings("label", list(labels)),
                ],
                block_size=100,
            ),
            query,
            ["label"],
            one_partition,
        )
        # Same blocks and the same single dictionary charge as one partition.
        assert label_blocks == one_partition.per_column[("tagged", "label")]
        assert io.bytes_read == one_partition.bytes_read


class TestConfigKnobs:
    def test_pruning_can_be_disabled(self):
        session = _session(
            _partitioned_table(), EngineConfig(partition_pruning=False)
        )
        query = CardQuery(
            tables=("events",),
            predicates=(TablePredicate("events", "ts", PredicateOp.LT, 0.0),),
        )
        result = session.run(query)
        assert result.scans["events"].partitions_pruned == 0
        assert result.scans["events"].partitions_scanned == 8
