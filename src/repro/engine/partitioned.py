"""Partition pruning and the partitioned-scan driver.

The driver is the engine's partition-native entry point for table scans:

1. **Prune** -- every partition's zone maps are tested against the query's
   predicates; partitions that provably contain no matching row are skipped
   before any block I/O (the counters below record how many).
2. **Scan** -- surviving partitions are scanned in partition order with the
   table's reader (single- or multi-stage) and column order, all charging
   the query's one :class:`IOCounter` (a string dictionary is charged once
   per column, however many partitions read it).
3. **Merge** -- per-partition :class:`ScanResult`s are folded into one, in
   partition order.

Scan parallelism belongs to the production engine's MPP workers; the
in-process reproduction scans one partition at a time.
"""

from __future__ import annotations

import time

import numpy as np

from repro.engine.readers import (
    ReaderKind,
    ScanResult,
    multi_stage_scan,
    single_stage_scan,
)
from repro.obs.metrics import MetricsRegistry
from repro.sql.query import CardQuery
from repro.storage.io_stats import IOCounter
from repro.storage.partitions import Partition
from repro.storage.table import Table


def partition_refuted(table: Table, partition: Partition, query: CardQuery) -> bool:
    """True when zone maps prove no row of ``partition`` can match.

    A partition is refuted when any AND-ed predicate is refuted by its
    column's zone map, or when every member of an OR-group local to this
    table is refuted (the group then selects nothing in this partition).
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


def _merge_scan_results(
    table: Table,
    reader: ReaderKind,
    results: list[ScanResult],
    pruned: list[int],
    total_partitions: int,
) -> ScanResult:
    """Fold per-partition results (already in partition order) into one."""
    indices = [r.row_indices for r in results if r.row_indices.size]
    row_indices = (
        np.concatenate(indices) if indices else np.empty(0, dtype=np.int64)
    )
    stage_survivors: list[int] = []
    for result in results:
        for stage, survivors in enumerate(result.stage_survivors):
            if stage == len(stage_survivors):
                stage_survivors.append(survivors)
            else:
                stage_survivors[stage] += survivors
    return ScanResult(
        table=table.name,
        reader=reader,
        row_indices=row_indices.astype(np.int64),
        blocks_read=sum(r.blocks_read for r in results),
        rows_scanned=sum(r.rows_scanned for r in results),
        random_blocks=sum(r.random_blocks for r in results),
        stage_survivors=stage_survivors,
        partitions_scanned=len(results),
        partitions_pruned=len(pruned),
        pruned_partition_indices=tuple(pruned),
        partition_scans=list(results) if total_partitions > 1 else [],
    )


def partitioned_scan(
    table: Table,
    query: CardQuery,
    payload_columns: list[str],
    io: IOCounter,
    *,
    reader: ReaderKind = ReaderKind.SINGLE_STAGE,
    column_order: list[str] | None = None,
    prune: bool = True,
    registry: MetricsRegistry | None = None,
) -> ScanResult:
    """Prune, scan surviving partitions in order, and merge.

    Every surviving partition is scanned with the optimizer's table-level
    ``reader`` and ``column_order``, charging ``io``.
    """
    registry = registry if registry is not None else MetricsRegistry(enabled=False)
    if prune:
        survivors, pruned = prune_partitions(table, query)
    else:
        survivors, pruned = list(table.partitions()), []
    if registry.enabled:
        registry.counter("engine_partitions_scanned_total").inc(len(survivors))
        registry.counter("engine_partitions_pruned_total").inc(len(pruned))

    def scan_one(partition: Partition) -> ScanResult:
        start = time.perf_counter()
        if reader is ReaderKind.MULTI_STAGE:
            result = multi_stage_scan(
                table,
                query,
                payload_columns,
                io,
                column_order=column_order,
                partition=partition,
            )
        else:
            result = single_stage_scan(
                table, query, payload_columns, io, partition=partition
            )
        if registry.enabled:
            registry.histogram(
                "engine_partition_scan_seconds", table=table.name
            ).observe(time.perf_counter() - start)
        return result

    results = [scan_one(partition) for partition in survivors]
    return _merge_scan_results(
        table, reader, results, pruned, table.num_partitions
    )
