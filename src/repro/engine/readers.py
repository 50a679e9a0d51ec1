"""Single-stage and multi-stage early-materialization readers.

Both readers produce the surviving row set of one table under a query's
predicates; they differ in I/O:

* the **single-stage** reader scans every block of every needed column in
  one pass and applies all predicates at once -- efficient for
  non-selective predicates (block reads amortize), wasteful for selective
  ones (it constructs tuples that are immediately discarded);
* the **multi-stage** reader reads filter columns one at a time in the
  optimizer-chosen order, and for each later stage reads only the blocks
  that still contain surviving rows -- the I/O saving the paper's Figure
  6(a) measures.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.sql.query import CardQuery, TablePredicate
from repro.storage.blocks import read_block
from repro.storage.io_stats import IOCounter
from repro.storage.partitions import Partition
from repro.storage.table import Table
from repro.workloads.predicates import predicate_mask


class ReaderKind(enum.Enum):
    SINGLE_STAGE = "single-stage"
    MULTI_STAGE = "multi-stage"


@dataclass
class ScanResult:
    """Outcome of scanning one partition, or a table's merged partitions.

    ``row_indices`` are always *global* table row indices, so per-partition
    results concatenate into exactly what a whole-table scan would return.
    """

    table: str
    reader: ReaderKind
    row_indices: np.ndarray
    blocks_read: int
    rows_scanned: int
    #: blocks read non-contiguously in later stages (charged a random-read
    #: penalty by the cost model; zero for single-stage scans)
    random_blocks: int = 0
    #: rows surviving after each multi-stage filter stage (each carries a
    #: tuple-append cost: the incremental tuple construction the paper
    #: describes for the multi-stage reader)
    stage_survivors: list[int] = field(default_factory=list)
    #: partition accounting, filled by the partitioned scan driver
    partitions_scanned: int = 1
    partitions_pruned: int = 0
    pruned_partition_indices: tuple[int, ...] = ()


def _filter_columns_of(table: Table, query: CardQuery) -> list[str]:
    """Columns of ``table`` referenced by the query's predicates."""
    columns: list[str] = []
    for pred in query.all_predicates():
        if pred.table == table.name and pred.column not in columns:
            columns.append(pred.column)
    return columns


def _mask_for_column(
    table: Table, query: CardQuery, column: str, values: np.ndarray
) -> np.ndarray:
    """Evaluate every predicate of ``query`` touching ``column`` on a block."""
    mask = np.ones(values.shape[0], dtype=bool)
    for pred in query.predicates:
        if pred.table == table.name and pred.column == column:
            mask &= predicate_mask(values, pred)
    return mask


def _or_group_mask(
    table: Table, query: CardQuery, row_indices: np.ndarray
) -> np.ndarray:
    """Evaluate OR-groups on already-materialized rows (single-table groups)."""
    mask = np.ones(row_indices.size, dtype=bool)
    for group in query.or_groups:
        members = [p for p in group if p.table == table.name]
        if not members:
            continue
        group_mask = np.zeros(row_indices.size, dtype=bool)
        for pred in members:
            values = table.column(pred.column).values[row_indices]
            group_mask |= predicate_mask(values, pred)
        mask &= group_mask
    return mask


def single_stage_scan(
    table: Table,
    query: CardQuery,
    payload_columns: list[str],
    io: IOCounter,
    partition: Partition,
) -> ScanResult:
    """One-pass scan of one partition: read every needed column fully,
    filter once."""
    filter_columns = _filter_columns_of(table, query)
    needed = list(dict.fromkeys(filter_columns + payload_columns))
    before = io.blocks_read
    mask = np.ones(partition.num_rows, dtype=bool)
    for column in needed:
        pieces = [
            read_block(table, partition, column, b, io)
            for b in range(partition.num_blocks)
        ]
        values = np.concatenate(pieces) if pieces else np.empty(0)
        if column in filter_columns:
            mask &= _mask_for_column(table, query, column, values)
    row_indices = np.flatnonzero(mask) + partition.row_start
    if query.or_groups:
        row_indices = row_indices[_or_group_mask(table, query, row_indices)]
    return ScanResult(
        table=table.name,
        reader=ReaderKind.SINGLE_STAGE,
        row_indices=row_indices,
        blocks_read=io.blocks_read - before,
        rows_scanned=partition.num_rows * len(needed),
    )


def multi_stage_scan(
    table: Table,
    query: CardQuery,
    payload_columns: list[str],
    io: IOCounter,
    partition: Partition,
    column_order: list[str] | None = None,
) -> ScanResult:
    """Staged scan of one partition: filter column by column, skipping
    exhausted blocks."""
    filter_columns = column_order or _filter_columns_of(table, query)
    before = io.blocks_read
    rows_scanned = 0
    random_blocks = 0
    stage_survivors: list[int] = []

    surviving_blocks = list(range(partition.num_blocks))
    block_masks: dict[int, np.ndarray] = {}
    if not filter_columns:
        # No predicates: every row of every block survives.
        for block in surviving_blocks:
            start, stop = partition.block_bounds(block)
            block_masks[block] = np.ones(stop - start, dtype=bool)
    for stage, column in enumerate(filter_columns):
        next_surviving: list[int] = []
        survivors = 0
        for block in surviving_blocks:
            values = read_block(table, partition, column, block, io)
            rows_scanned += values.shape[0]
            if stage > 0:
                random_blocks += 1
            mask = _mask_for_column(table, query, column, values)
            if stage > 0:
                mask &= block_masks[block]
            if mask.any():
                block_masks[block] = mask
                next_surviving.append(block)
                survivors += int(mask.sum())
            else:
                block_masks.pop(block, None)
        stage_survivors.append(survivors)
        surviving_blocks = next_surviving
        if not surviving_blocks:
            break

    # Materialize payload columns only for surviving blocks.
    remaining_payload = [
        c for c in payload_columns if c not in filter_columns
    ]
    for column in remaining_payload:
        for block in surviving_blocks:
            values = read_block(table, partition, column, block, io)
            rows_scanned += values.shape[0]
            random_blocks += 1

    indices_pieces = []
    for block in surviving_blocks:
        start, _stop = partition.block_bounds(block)
        local = np.flatnonzero(block_masks[block]) + start
        indices_pieces.append(local)
    row_indices = (
        np.concatenate(indices_pieces) if indices_pieces else np.empty(0, np.int64)
    )
    if query.or_groups and row_indices.size:
        # OR-group columns are read for the surviving blocks only -- and
        # must be charged like any other late-stage (random) block read.
        or_columns = sorted(
            {
                pred.column
                for group in query.or_groups
                for pred in group
                if pred.table == table.name and pred.column not in filter_columns
            }
        )
        touched_blocks = np.unique(
            (row_indices - partition.row_start) // table.block_size
        )
        for column in or_columns:
            for block in touched_blocks:
                values = read_block(table, partition, column, int(block), io)
                rows_scanned += values.shape[0]
                random_blocks += 1
        row_indices = row_indices[_or_group_mask(table, query, row_indices)]
    return ScanResult(
        table=table.name,
        reader=ReaderKind.MULTI_STAGE,
        row_indices=row_indices.astype(np.int64),
        blocks_read=io.blocks_read - before,
        rows_scanned=rows_scanned,
        random_blocks=random_blocks,
        stage_survivors=stage_survivors,
    )
