"""Tests for partitions and zone maps."""

import numpy as np
import pytest

from repro.errors import SchemaError
from repro.sql.query import PredicateOp, TablePredicate
from repro.storage import (
    BlockReader,
    Catalog,
    Column,
    IOCounter,
    Table,
    ZoneMap,
)


def _table(rows=1000, partitions=None, block_size=100):
    rng = np.random.default_rng(7)
    return Table.from_arrays(
        "t",
        {
            "a": np.arange(rows),
            "b": rng.integers(0, 50, rows),
        },
        block_size=block_size,
        partitions=partitions,
    )


class TestPartitionLayout:
    def test_default_is_single_partition(self):
        table = _table()
        assert table.num_partitions == 1
        part = table.partition(0)
        assert (part.row_start, part.row_stop) == (0, 1000)
        assert part.num_blocks == 10

    def test_count_split_covers_all_rows(self):
        table = _table(rows=1003, partitions=4)
        parts = table.partitions()
        assert len(parts) == 4
        assert parts[0].row_start == 0
        assert parts[-1].row_stop == 1003
        for left, right in zip(parts, parts[1:]):
            assert left.row_stop == right.row_start
        assert sum(p.num_rows for p in parts) == 1003

    def test_explicit_sizes(self):
        table = _table(rows=1000, partitions=[200, 0, 800])
        parts = table.partitions()
        assert [p.num_rows for p in parts] == [200, 0, 800]

    def test_sizes_must_sum_to_rows(self):
        with pytest.raises(SchemaError):
            _table(rows=1000, partitions=[100, 200])

    def test_partition_local_blocks(self):
        # Partition boundaries need not align with block boundaries: each
        # partition gets its own block index starting at its first row.
        table = _table(rows=1000, partitions=[250, 750], block_size=100)
        first, second = table.partitions()
        assert first.num_blocks == 3  # 100 + 100 + 50
        assert second.num_blocks == 8  # 100 x 7 + 50
        assert first.block_bounds(2) == (200, 250)
        assert second.block_bounds(0) == (250, 350)
        with pytest.raises(IndexError):
            second.block_bounds(8)

    def test_partition_count_capped_at_row_count(self):
        table = _table(rows=3, partitions=10)
        assert table.num_partitions == 3
        assert [p.num_rows for p in table.partitions()] == [1, 1, 1]

    @pytest.mark.parametrize("partitions", [0, -2, [], [600, -100, 500]])
    def test_invalid_partition_spec_rejected(self, partitions):
        with pytest.raises(SchemaError):
            _table(rows=1000, partitions=partitions)

    def test_out_of_range_partition_index_rejected(self):
        table = _table(partitions=2)
        for index in (-1, 2):
            with pytest.raises(IndexError):
                table.partition(index)
            with pytest.raises(IndexError):
                table.partition_generation(index)

    def test_take_and_sample_collapse_to_single_partition(self):
        table = _table(rows=1000, partitions=4)
        taken = table.take(np.arange(0, 1000, 7))
        assert taken.num_partitions == 1
        sampled = table.sample(64, np.random.default_rng(3))
        assert sampled.num_partitions == 1


class TestZoneMaps:
    def test_min_max_per_partition(self):
        table = _table(rows=1000, partitions=[500, 500])
        low = table.zone_map(0, "a")
        high = table.zone_map(1, "a")
        assert (low.min_value, low.max_value) == (0.0, 499.0)
        assert (high.min_value, high.max_value) == (500.0, 999.0)
        assert low.num_rows == high.num_rows == 500

    def test_zone_map_is_cached(self):
        table = _table(partitions=2)
        assert table.zone_map(0, "a") is table.zone_map(0, "a")

    def test_catalog_register_builds_partitioned_zone_maps(self):
        table = _table(partitions=4)
        catalog = Catalog()
        catalog.register(table)
        assert len(table._zone_maps) == 4 * 2  # every partition x column

    def test_refutation_ops(self):
        zm = ZoneMap.from_values(np.arange(100, 200))
        refuted = [
            TablePredicate("t", "a", PredicateOp.EQ, 50.0),
            TablePredicate("t", "a", PredicateOp.EQ, 250.0),
            TablePredicate("t", "a", PredicateOp.LT, 100.0),
            TablePredicate("t", "a", PredicateOp.LE, 99.0),
            TablePredicate("t", "a", PredicateOp.GT, 199.0),
            TablePredicate("t", "a", PredicateOp.GE, 200.0),
            TablePredicate("t", "a", PredicateOp.IN, (10.0, 250.0)),
            TablePredicate("t", "a", PredicateOp.BETWEEN, (210.0, 220.0)),
        ]
        for pred in refuted:
            assert zm.refutes(pred), pred
        possible = [
            TablePredicate("t", "a", PredicateOp.EQ, 150.0),
            TablePredicate("t", "a", PredicateOp.NE, 150.0),
            TablePredicate("t", "a", PredicateOp.LT, 101.0),
            TablePredicate("t", "a", PredicateOp.LE, 100.0),
            TablePredicate("t", "a", PredicateOp.GT, 198.0),
            TablePredicate("t", "a", PredicateOp.GE, 199.0),
            TablePredicate("t", "a", PredicateOp.IN, (10.0, 150.0)),
            TablePredicate("t", "a", PredicateOp.BETWEEN, (150.0, 400.0)),
        ]
        for pred in possible:
            assert not zm.refutes(pred), pred

    def test_bounds_are_inclusive(self):
        zm = ZoneMap.from_values(np.arange(100, 200))
        edges = [
            TablePredicate("t", "a", PredicateOp.EQ, 100.0),
            TablePredicate("t", "a", PredicateOp.EQ, 199.0),
            TablePredicate("t", "a", PredicateOp.IN, (199.0,)),
            TablePredicate("t", "a", PredicateOp.BETWEEN, (199.0, 300.0)),
            TablePredicate("t", "a", PredicateOp.BETWEEN, (0.0, 100.0)),
        ]
        for pred in edges:
            assert not zm.refutes(pred), pred

    def test_float_column_min_max(self):
        table = Table.from_arrays(
            "t", {"x": np.array([0.5, -2.25, 3.75, 1.0])}, partitions=2
        )
        first, second = table.zone_map(0, "x"), table.zone_map(1, "x")
        assert (first.min_value, first.max_value) == (-2.25, 0.5)
        assert (second.min_value, second.max_value) == (1.0, 3.75)
        assert second.refutes(TablePredicate("t", "x", PredicateOp.LT, 1.0))
        assert not second.refutes(TablePredicate("t", "x", PredicateOp.LT, 1.5))

    def test_ne_refuted_only_for_constant_partition(self):
        constant = ZoneMap.from_values(np.full(10, 7))
        assert constant.refutes(TablePredicate("t", "a", PredicateOp.NE, 7.0))
        varied = ZoneMap.from_values(np.array([7, 8]))
        assert not varied.refutes(TablePredicate("t", "a", PredicateOp.NE, 7.0))

    def test_empty_partition_refutes_everything(self):
        zm = ZoneMap.from_values(np.empty(0, dtype=np.int64))
        assert zm.num_rows == 0
        assert zm.refutes(TablePredicate("t", "a", PredicateOp.GE, 0.0))


class TestPartitionBlockReader:
    def test_partition_local_addressing(self):
        table = _table(rows=1000, partitions=[250, 750], block_size=100)
        io = IOCounter()
        reader = BlockReader(table, io, partition=table.partition(1))
        assert reader.total_blocks() == 8
        block = reader.read_column_block("a", 0)
        assert list(block[:3]) == [250, 251, 252]
        with pytest.raises(IndexError):
            reader.read_column_block("a", 8)

    def test_unbound_reader_spans_whole_table(self):
        table = _table(rows=1000, partitions=[250, 750], block_size=100)
        reader = BlockReader(table, IOCounter())
        assert reader.total_blocks() == 10
        assert reader.read_column_block("a", 9)[0] == 900

    def test_partition_reads_charge_io(self):
        table = _table(rows=1000, partitions=[250, 750], block_size=100)
        io = IOCounter()
        reader = BlockReader(table, io, partition=table.partition(0))
        reader.read_column_block("a", 2)  # the short 50-row tail block
        assert io.blocks_read == 1
        assert io.rows_read == 50


class TestStringColumnPartitions:
    def test_zone_maps_over_dictionary_codes(self):
        column = Column.from_strings("s", ["b", "a", "c", "a"])
        table = Table("t", [column], block_size=2, partitions=[2, 2])
        zm = table.zone_map(1, "s")
        # Codes: a=0, b=1, c=2 -> partition rows are ["c", "a"].
        assert (zm.min_value, zm.max_value) == (0.0, 2.0)
