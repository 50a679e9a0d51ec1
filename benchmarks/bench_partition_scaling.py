"""Partition pruning ratio on a partition-clustered table.

A partition-clustered fact table (rows sorted by ``day``, contiguous range
partitions, so each partition's zone map covers a disjoint key range) is
scanned with a selective predicate on the clustering column: zone maps must
refute at least half the partitions, verified through the
``engine_partitions_pruned_total`` counter (not just the scan result).

The JSON report lands in ``benchmarks/results/partition_scaling.json``.
Set ``PARTITION_BENCH_SMOKE=1`` for a reduced configuration suitable for a
CI smoke job.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from conftest import RESULTS_DIR, record_table, render_grid

from repro.engine import partitioned_scan
from repro.obs import MetricsRegistry
from repro.sql.query import CardQuery, PredicateOp, TablePredicate
from repro.storage import IOCounter, Table

SMOKE = os.environ.get("PARTITION_BENCH_SMOKE", "") not in ("", "0")
NUM_ROWS = 200_000 if SMOKE else 2_000_000
NUM_PARTITIONS = 8
BLOCK_SIZE = 5_000 if SMOKE else 25_000


@pytest.fixture(scope="module")
def fact_table():
    rng = np.random.default_rng(97)
    return Table.from_arrays(
        "facts",
        {
            # Clustering column: sorted, so range partitions own disjoint
            # day ranges and zone maps can actually refute.
            "day": np.sort(rng.integers(0, 365, NUM_ROWS)),
            "payload": rng.integers(0, 1_000_000, NUM_ROWS),
        },
        block_size=BLOCK_SIZE,
        partitions=NUM_PARTITIONS,
    )


def _selective_query():
    """Last ~1/8th of the year: survives only the tail partition(s)."""
    return CardQuery(
        tables=("facts",),
        predicates=(TablePredicate("facts", "day", PredicateOp.GE, 340.0),),
    )


def test_partition_pruning(fact_table):
    report: dict = {
        "smoke": SMOKE,
        "num_rows": NUM_ROWS,
        "num_partitions": NUM_PARTITIONS,
        "block_size": BLOCK_SIZE,
    }

    registry = MetricsRegistry()
    io = IOCounter()
    pruned_scan = partitioned_scan(
        fact_table, _selective_query(), ["payload"], io, registry=registry
    )
    pruned_total = registry.get("engine_partitions_pruned_total").value
    pruning_ratio = pruned_total / NUM_PARTITIONS
    report["pruning"] = {
        "partitions_pruned": int(pruned_total),
        "pruning_ratio": pruning_ratio,
        "blocks_read": io.blocks_read,
        "matching_rows": int(pruned_scan.row_indices.size),
    }
    # Acceptance: a selective predicate over the partition-clustered column
    # prunes at least 50% of partitions.
    assert pruning_ratio >= 0.5, f"pruning ratio {pruning_ratio:.2f} < 0.5"
    assert pruned_scan.row_indices.size > 0

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "partition_scaling.json").write_text(
        json.dumps(report, indent=2) + "\n"
    )

    record_table(
        "partition_scaling",
        render_grid(
            "Partitioned scan: pruning ratio",
            ["query", "partitions pruned", "ratio", "blocks read"],
            [
                [
                    "day >= 340",
                    f"{int(pruned_total)}/{NUM_PARTITIONS}",
                    f"{pruning_ratio:5.0%}",
                    str(io.blocks_read),
                ]
            ],
        ),
    )
