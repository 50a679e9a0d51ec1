"""Partitions and zone maps: the pruning metadata of partition-native tables.

ByteHouse shards tables across compute workers; the in-process equivalent is
an ordered list of :class:`Partition` row ranges, each with its own block
index.  Every partition carries a per-column min/max :class:`ZoneMap`,
built once when the table is loaded into the catalog (lazily for tables that
never reach the engine).  The engine's
:func:`repro.engine.partitioned.partitioned_scan` consults the zone maps to
refute partitions *before* any block I/O, and the optimizer applies the same
refutation rule at plan time to report which partitions survive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sql.query import PredicateOp, TablePredicate


@dataclass(frozen=True)
class ZoneMap:
    """Per-partition, per-column pruning statistics."""

    min_value: float
    max_value: float
    num_rows: int

    @classmethod
    def from_values(cls, values: np.ndarray) -> "ZoneMap":
        if values.size == 0:
            return cls(
                min_value=float("inf"), max_value=float("-inf"), num_rows=0
            )
        return cls(
            min_value=float(values.min()),
            max_value=float(values.max()),
            num_rows=int(values.size),
        )

    # ------------------------------------------------------------------
    def refutes(self, pred: TablePredicate) -> bool:
        """True when no row in this partition can satisfy ``pred``.

        Conservative: ``False`` means "cannot prove empty", never "matches".
        """
        if self.num_rows == 0:
            return True
        lo, hi = self.min_value, self.max_value
        op = pred.op
        if op is PredicateOp.EQ:
            return pred.value < lo or pred.value > hi
        if op is PredicateOp.NE:
            # Only refutable when the partition is a single constant value.
            return lo == hi == pred.value
        if op is PredicateOp.LT:
            return lo >= pred.value
        if op is PredicateOp.LE:
            return lo > pred.value
        if op is PredicateOp.GT:
            return hi <= pred.value
        if op is PredicateOp.GE:
            return hi < pred.value
        if op is PredicateOp.IN:
            return all(v < lo or v > hi for v in pred.value)  # type: ignore[union-attr]
        if op is PredicateOp.BETWEEN:
            low, high = pred.value  # type: ignore[misc]
            return high < lo or low > hi
        return False


@dataclass(frozen=True)
class Partition:
    """One contiguous row range of a table, with its own block index.

    Blocks are addressed *partition-locally*: block ``b`` of this partition
    covers global rows ``[row_start + b * block_size,
    min(row_start + (b + 1) * block_size, row_stop))``.
    """

    table_name: str
    index: int
    row_start: int
    row_stop: int
    block_size: int

    @property
    def num_rows(self) -> int:
        return self.row_stop - self.row_start

    @property
    def num_blocks(self) -> int:
        # Same math as :func:`repro.storage.blocks.block_count`, inlined to
        # keep this module import-free of the reader stack.
        return (self.num_rows + self.block_size - 1) // self.block_size

    def block_bounds(self, block_index: int) -> tuple[int, int]:
        """Global ``(start, stop)`` row bounds of one partition-local block."""
        if block_index < 0 or block_index >= self.num_blocks:
            raise IndexError(
                f"block {block_index} out of range for partition "
                f"{self.index} of table {self.table_name!r}"
            )
        start = self.row_start + block_index * self.block_size
        return start, min(start + self.block_size, self.row_stop)

    def __repr__(self) -> str:
        return (
            f"Partition({self.table_name!r}, index={self.index}, "
            f"rows=[{self.row_start}, {self.row_stop}))"
        )
