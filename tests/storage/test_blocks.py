"""Tests for block iteration and I/O accounting."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.storage import (
    BlockReader,
    Column,
    IOCounter,
    Table,
    block_count,
    block_slices,
)


class TestBlockMath:
    def test_exact_division(self):
        assert block_count(100, 25) == 4

    def test_remainder_adds_block(self):
        assert block_count(101, 25) == 5

    def test_zero_rows(self):
        assert block_count(0, 25) == 0

    def test_bad_block_size(self):
        with pytest.raises(ValueError):
            block_count(10, 0)

    @given(st.integers(1, 100_000), st.integers(1, 5000))
    def test_slices_cover_all_rows(self, rows, block_size):
        slices = list(block_slices(rows, block_size))
        assert len(slices) == block_count(rows, block_size)
        covered = sum(s.stop - s.start for s in slices)
        assert covered == rows
        if slices:
            assert slices[0].start == 0
            assert slices[-1].stop == rows


class TestBlockReader:
    def _setup(self, rows=100, block_size=32):
        table = Table.from_arrays("t", {"a": np.arange(rows)}, block_size=block_size)
        io = IOCounter()
        return table, io, BlockReader(table, io)

    def test_reads_block_contents(self):
        _table, _io, reader = self._setup()
        block = reader.read_column_block("a", 1)
        assert list(block) == list(range(32, 64))

    def test_last_block_is_short(self):
        _table, _io, reader = self._setup(rows=100, block_size=32)
        assert reader.read_column_block("a", 3).shape[0] == 4

    def test_out_of_range_block(self):
        _table, _io, reader = self._setup()
        with pytest.raises(IndexError):
            reader.read_column_block("a", 99)
        with pytest.raises(IndexError):
            reader.read_column_block("a", -1)

    def test_io_accounting(self):
        _table, io, reader = self._setup()
        reader.read_column_block("a", 0)
        reader.read_column_block("a", 1)
        assert io.blocks_read == 2
        assert io.rows_read == 64
        assert io.per_column[("t", "a")] == 2

    def test_read_many(self):
        _table, io, reader = self._setup()
        blocks = reader.read_column_blocks("a", [0, 2])
        assert set(blocks) == {0, 2}
        assert io.blocks_read == 2

    def test_total_blocks(self):
        _table, _io, reader = self._setup(rows=100, block_size=32)
        assert reader.total_blocks() == 4


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
        reader = BlockReader(table, io)
        reader.read_column_block("a", 0)
        assert io.bytes_read == 32 * 8
        reader.read_column_block("a", 3)  # short tail block: 4 rows
        assert io.bytes_read == 32 * 8 + 4 * 8

    def test_narrow_dtype_charges_actual_width(self):
        from repro.storage import ColumnType

        values = np.arange(100, dtype=np.int16)
        table = Table("t", [Column("a", ColumnType.INT, values)], block_size=50)
        io = IOCounter()
        BlockReader(table, io).read_column_block("a", 0)
        assert io.bytes_read == 50 * values.dtype.itemsize

    def test_string_dictionary_charged_once_per_column(self):
        column = Column.from_strings("s", ["x", "y", "z", "w"] * 25)
        table = Table("t", [column], block_size=20)
        codes_itemsize = column.values.dtype.itemsize
        dict_nbytes = column.nbytes - int(column.values.nbytes)
        assert dict_nbytes > 0
        io = IOCounter()
        reader = BlockReader(table, io)
        reader.read_column_block("s", 0)
        assert io.bytes_read == 20 * codes_itemsize + dict_nbytes
        # Subsequent blocks charge codes only: the dictionary is resident.
        reader.read_column_block("s", 1)
        reader.read_column_block("s", 2)
        assert io.bytes_read == 3 * 20 * codes_itemsize + dict_nbytes

    def test_distinct_counters_each_charge_the_dictionary(self):
        column = Column.from_strings("s", ["x", "y"] * 50)
        table = Table("t", [column], block_size=50)
        first, second = IOCounter(), IOCounter()
        BlockReader(table, first).read_column_block("s", 0)
        BlockReader(table, second).read_column_block("s", 1)
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
