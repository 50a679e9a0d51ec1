"""Tests for partition-addressed block reads and I/O accounting."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.storage import (
    Column,
    IOCounter,
    Partition,
    Table,
    read_block,
)


def _partition(rows: int, block_size: int) -> Partition:
    return Partition("t", 0, 0, rows, block_size)


class TestBlockMath:
    def test_exact_division(self):
        assert _partition(100, 25).num_blocks == 4

    def test_remainder_adds_block(self):
        assert _partition(101, 25).num_blocks == 5

    def test_zero_rows(self):
        assert _partition(0, 25).num_blocks == 0

    @given(st.integers(1, 100_000), st.integers(1, 5000))
    def test_blocks_cover_all_rows(self, rows, block_size):
        partition = _partition(rows, block_size)
        bounds = [partition.block_bounds(b) for b in range(partition.num_blocks)]
        assert sum(stop - start for start, stop in bounds) == rows
        assert bounds[0][0] == 0
        assert bounds[-1][1] == rows
        assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))


class TestReadBlock:
    def _setup(self, rows=100, block_size=32):
        table = Table.from_arrays("t", {"a": np.arange(rows)}, block_size=block_size)
        return table, table.partition(0), IOCounter()

    def test_reads_block_contents(self):
        table, partition, io = self._setup()
        block = read_block(table, partition, "a", 1, io)
        assert list(block) == list(range(32, 64))

    def test_last_block_is_short(self):
        table, partition, io = self._setup(rows=100, block_size=32)
        assert read_block(table, partition, "a", 3, io).shape[0] == 4

    def test_out_of_range_block(self):
        table, partition, io = self._setup()
        with pytest.raises(IndexError):
            read_block(table, partition, "a", 99, io)
        with pytest.raises(IndexError):
            read_block(table, partition, "a", -1, io)
        assert io.blocks_read == 0

    def test_io_accounting(self):
        table, partition, io = self._setup()
        read_block(table, partition, "a", 0, io)
        read_block(table, partition, "a", 1, io)
        assert io.blocks_read == 2
        assert io.rows_read == 64
        assert io.per_column[("t", "a")] == 2

    def test_each_call_charges_one_block(self):
        table, partition, io = self._setup()
        for expected, block in enumerate([2, 0, 2], start=1):
            read_block(table, partition, "a", block, io)
            assert io.blocks_read == expected


class TestByteAccounting:
    """Regression tests pinning the bytes charged per block read.

    The old accounting charged ``len(values) * (col.nbytes // num_rows)``,
    which (a) rounded the per-row byte rate down and (b) smeared a string
    column's dictionary into every block.  Bytes charged must now be the
    slice's actual dtype bytes, with the dictionary charged exactly once
    per (table, column) per counter.
    """

    def test_numeric_block_charges_slice_nbytes(self):
        table = Table.from_arrays(
            "t", {"a": np.arange(100, dtype=np.int64)}, block_size=32
        )
        io = IOCounter()
        read_block(table, table.partition(0), "a", 0, io)
        assert io.bytes_read == 32 * 8
        read_block(table, table.partition(0), "a", 3, io)  # short tail block: 4 rows
        assert io.bytes_read == 32 * 8 + 4 * 8

    def test_narrow_dtype_charges_actual_width(self):
        from repro.storage import ColumnType

        values = np.arange(100, dtype=np.int16)
        table = Table("t", [Column("a", ColumnType.INT, values)], block_size=50)
        io = IOCounter()
        read_block(table, table.partition(0), "a", 0, io)
        assert io.bytes_read == 50 * values.dtype.itemsize

    def test_string_dictionary_charged_once_per_column(self):
        column = Column.from_strings("s", ["x", "y", "z", "w"] * 25)
        table = Table("t", [column], block_size=20)
        codes_itemsize = column.values.dtype.itemsize
        dict_nbytes = column.nbytes - int(column.values.nbytes)
        assert dict_nbytes > 0
        io = IOCounter()
        partition = table.partition(0)
        read_block(table, partition, "s", 0, io)
        assert io.bytes_read == 20 * codes_itemsize + dict_nbytes
        # Subsequent blocks charge codes only: the dictionary is resident.
        read_block(table, partition, "s", 1, io)
        read_block(table, partition, "s", 2, io)
        assert io.bytes_read == 3 * 20 * codes_itemsize + dict_nbytes

    def test_distinct_counters_each_charge_the_dictionary(self):
        column = Column.from_strings("s", ["x", "y"] * 50)
        table = Table("t", [column], block_size=50)
        first, second = IOCounter(), IOCounter()
        read_block(table, table.partition(0), "s", 0, first)
        read_block(table, table.partition(0), "s", 1, second)
        assert first.bytes_read == second.bytes_read


class TestIOCounter:
    def test_record_block_tallies_totals(self):
        io = IOCounter()
        io.record_block("t", "a", rows=10, nbytes=80)
        io.record_block("t", "a", rows=4, nbytes=32)
        assert (io.blocks_read, io.rows_read, io.bytes_read) == (2, 14, 112)
        assert io.per_column == {("t", "a"): 2}

    def test_per_column_counts_are_keyed_by_table_and_column(self):
        io = IOCounter()
        io.record_block("t", "a", rows=1, nbytes=8)
        io.record_block("t", "b", rows=1, nbytes=8)
        io.record_block("u", "a", rows=1, nbytes=8)
        assert io.per_column == {("t", "a"): 1, ("t", "b"): 1, ("u", "a"): 1}
        assert io.blocks_read == 3

    def test_dictionary_charged_once(self):
        io = IOCounter()
        assert io.record_dictionary("t", "s", 100) is True
        assert io.record_dictionary("t", "s", 100) is False
        assert io.bytes_read == 100
        assert io.dict_charges == {("t", "s"): 100}
        # A dictionary charge is bytes only, never a block.
        assert io.blocks_read == 0

    def test_each_column_dictionary_charged_separately(self):
        io = IOCounter()
        io.record_dictionary("t", "s", 100)
        io.record_dictionary("t", "r", 40)
        io.record_dictionary("u", "s", 7)
        assert io.bytes_read == 147
        assert len(io.dict_charges) == 3

    def test_counters_do_not_share_state(self):
        first, second = IOCounter(), IOCounter()
        first.record_block("t", "a", rows=1, nbytes=8)
        first.record_dictionary("t", "s", 10)
        assert second.per_column == {}
        assert second.dict_charges == {}
        assert second.record_dictionary("t", "s", 10) is True
