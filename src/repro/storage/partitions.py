"""Partitions, zone maps and the one zone-map refutation rule.

ByteHouse shards tables across compute workers; the in-process equivalent is
an ordered list of :class:`Partition` row ranges, each with its own block
index.  Every partition carries a per-column min/max :class:`ZoneMap`,
built once when the table is loaded into the catalog (lazily for tables that
never reach the engine).  :func:`prune_partitions` splits a table's
partitions by :func:`partition_refuted`, the rule's one definition; it has
two callers: the engine's :func:`repro.engine.partitioned.partitioned_scan`,
which skips refuted partitions before any block I/O, and
:meth:`repro.estimators.ues.UpperBoundEstimator.table_bound`, which sums
the survivors' rows into a sound upper bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.sql.query import CardQuery, PredicateOp, TablePredicate

if TYPE_CHECKING:
    from repro.storage.table import Table


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
        return (self.num_rows + self.block_size - 1) // self.block_size

    def block_bounds(self, block_index: int) -> tuple[int, int]:
        """Global ``(start, stop)`` row bounds of one partition-local block."""
        start = self.row_start + block_index * self.block_size
        if block_index < 0 or start >= self.row_stop:
            raise IndexError(
                f"block {block_index} out of range for partition "
                f"{self.index} of table {self.table_name!r}"
            )
        return start, min(start + self.block_size, self.row_stop)


def partition_refuted(table: Table, partition: Partition, query: CardQuery) -> bool:
    """True when zone maps prove no row of ``partition`` can match.

    A partition is refuted when it is empty, when any AND-ed predicate is
    refuted by its column's zone map, or when every member of an OR-group
    local to this table is refuted (the group then selects nothing in this
    partition).
    """
    if partition.num_rows == 0:
        return True
    for pred in query.predicates:
        if pred.table != table.name:
            continue
        if table.zone_map(partition.index, pred.column).refutes(pred):
            return True
    for group in query.or_groups:
        members = [p for p in group if p.table == table.name]
        if not members:
            continue
        if all(
            table.zone_map(partition.index, p.column).refutes(p) for p in members
        ):
            return True
    return False


def prune_partitions(
    table: Table, query: CardQuery
) -> tuple[list[Partition], list[int]]:
    """Split partitions into (survivors, pruned partition indices)."""
    survivors: list[Partition] = []
    pruned: list[int] = []
    for partition in table.partitions():
        if partition_refuted(table, partition, query):
            pruned.append(partition.index)
        else:
            survivors.append(partition)
    return survivors, pruned
