"""Hash-join execution over scanned row sets.

Joins run in the optimizer's chosen order: each step joins one new table
into the accumulated intermediate result (arrays of row indices, one per
joined table -- late materialization).  A step's "hash table" is the new
table's rows stably sorted by join key -- counting-sorted when the keys are
integers spanning at most 65,536 values, ``argsort`` otherwise -- and all
probe rows' matches are expanded in one gather, so a step's Python cost does
not grow with its rows.  The cost model still charges a hash build and probe
per row and materialization per intermediate tuple; an explicit cap guards
against runaway materialization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ExecutionError
from repro.sql.query import JoinCondition
from repro.storage.catalog import Catalog

_DENSE_SPAN = 1 << 16  # widest integer key range of the uint16 counting sort


@dataclass
class JoinExecution:
    """Result of executing a join tree."""

    #: row indices per table, parallel arrays (one row per result tuple)
    tuples: dict[str, np.ndarray]
    #: intermediate result sizes after each join step (cost-model input)
    intermediate_sizes: list[int] = field(default_factory=list)
    #: rows hashed + probed across all steps
    build_rows: int = 0
    probe_rows: int = 0

    @property
    def result_rows(self) -> int:
        if not self.tuples:
            return 0
        return int(next(iter(self.tuples.values())).size)


def _build_probe(build_keys: np.ndarray, probe_keys: np.ndarray):
    """``(order, lo, counts)``: ``order`` stably sorts ``build_keys``, and
    probe row ``i`` matches build rows ``order[lo[i] : lo[i] + counts[i]]``.
    """
    if build_keys.size and build_keys.dtype.kind == probe_keys.dtype.kind == "i":
        build_keys = build_keys.astype(np.int64, copy=False)
        probe_keys = probe_keys.astype(np.int64, copy=False)
        low, high = build_keys.min(), build_keys.max()
        span = int(high) - int(low) + 1
        if span <= _DENSE_SPAN:
            shifted = (build_keys - low).astype(np.uint16)
            order = np.argsort(shifted, kind="stable")
            # Slot ``span`` is the empty run every out-of-range probe hits.
            run_counts = np.bincount(shifted, minlength=span + 1)
            run_starts = np.cumsum(run_counts) - run_counts
            inside = (probe_keys >= low) & (probe_keys <= high)
            slot = np.where(inside, probe_keys - low, span)
            return order, run_starts[slot], run_counts[slot]
    order = np.argsort(build_keys, kind="stable")
    sorted_keys = build_keys[order]
    lo = np.searchsorted(sorted_keys, probe_keys, side="left")
    hi = np.searchsorted(sorted_keys, probe_keys, side="right")
    return order, lo, hi - lo


def hash_join_step(
    catalog: Catalog,
    execution: JoinExecution,
    join: JoinCondition,
    scanned: dict[str, np.ndarray],
    max_intermediate_rows: int = 30_000_000,
) -> int:
    """Join one new table into the accumulated execution, **in place**.

    The executor drives joins step by step, observing each step's actual
    cardinality (runtime feedback, adaptive replanning).  Returns the step's
    output row count.
    """
    joined_tables = set(execution.tuples)
    left, right = join.tables()
    if left in joined_tables and right not in joined_tables:
        new_table = right
    elif right in joined_tables and left not in joined_tables:
        new_table = left
    else:
        raise ExecutionError(
            f"join order step {join} does not extend the joined prefix"
        )
    old_table = left if new_table == right else right

    old_keys = catalog.table(old_table).column(join.side_for(old_table)).values[
        execution.tuples[old_table]
    ]
    new_rows = scanned[new_table]
    new_keys = catalog.table(new_table).column(join.side_for(new_table)).values[
        new_rows
    ]

    # Build on the new table's rows, probe with the intermediate.
    order, lo, counts = _build_probe(new_keys, old_keys)
    out_rows = int(counts.sum())
    if out_rows > max_intermediate_rows:
        raise ExecutionError(
            f"intermediate join result of {out_rows} rows exceeds the "
            f"cap of {max_intermediate_rows}"
        )
    # Output row j of probe i's run takes build position lo[i] + j - starts[i].
    starts = np.cumsum(counts) - counts
    take = np.arange(out_rows) - np.repeat(starts - lo, counts)
    repeat_index = np.repeat(np.arange(old_keys.size), counts)

    execution.tuples = {
        table: rows[repeat_index] for table, rows in execution.tuples.items()
    }
    execution.tuples[new_table] = new_rows[order[take]]
    execution.build_rows += int(new_rows.size)
    execution.probe_rows += int(old_keys.size)
    execution.intermediate_sizes.append(out_rows)
    return out_rows
