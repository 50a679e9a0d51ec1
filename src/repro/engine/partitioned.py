"""The partitioned-scan driver: the engine's one table-scan path.

Every table scan of the executor goes through :func:`partitioned_scan`, the
only place the engine prunes:

1. **Prune** -- every partition's zone maps are tested against the query's
   predicates by :func:`repro.storage.partitions.prune_partitions`;
   partitions that provably contain no matching row are skipped before any
   block I/O (the counters below record how many).  Refutation is
   conservative, so pruning is always on.
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
from repro.storage.partitions import Partition, prune_partitions
from repro.storage.table import Table


def _merge_scan_results(
    table: Table,
    reader: ReaderKind,
    results: list[ScanResult],
    pruned: list[int],
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
    )


def partitioned_scan(
    table: Table,
    query: CardQuery,
    payload_columns: list[str],
    io: IOCounter,
    *,
    reader: ReaderKind = ReaderKind.SINGLE_STAGE,
    column_order: list[str] | None = None,
    registry: MetricsRegistry | None = None,
) -> ScanResult:
    """Prune, scan surviving partitions in order, and merge.

    Every surviving partition is scanned with the optimizer's table-level
    ``reader`` and ``column_order``, charging ``io``.
    """
    registry = registry if registry is not None else MetricsRegistry(enabled=False)
    survivors, pruned = prune_partitions(table, query)
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
                partition,
                column_order=column_order,
            )
        else:
            result = single_stage_scan(table, query, payload_columns, io, partition)
        if registry.enabled:
            registry.histogram(
                "engine_partition_scan_seconds", table=table.name
            ).observe(time.perf_counter() - start)
        return result

    results = [scan_one(partition) for partition in survivors]
    return _merge_scan_results(table, reader, results, pruned)
