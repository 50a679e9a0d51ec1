"""Hash aggregation with resize accounting and NDV-driven pre-sizing.

The operator groups the join result by the query's GROUP BY keys using a
:class:`SimulatedHashTable`.  Its initial capacity comes from the NDV
estimate the engine was given -- ByteCard's RBX in the learned
configuration, a cached/default size otherwise -- and the resulting resize
counts are the quantity of Figure 6(b).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.hash_table import SimulatedHashTable, _next_power_of_two
from repro.errors import ExecutionError
from repro.sql.query import CardQuery
from repro.storage.catalog import Catalog


@dataclass
class AggregationResult:
    """Outcome of one hash aggregation."""

    groups: int
    rows_aggregated: int
    resize_count: int
    moved_entries: int
    initial_capacity: int
    final_capacity: int
    #: slots allocated beyond the minimum capacity that would have held the
    #: actual groups resize-free -- the over-allocation cost of a too-high
    #: NDV estimate (the flip side of Figure 6(b)'s resize savings)
    presize_waste: int = 0
    #: the NDV-driven pre-size hit ``max_presize_capacity`` and was clamped
    presize_clamped: bool = False
    #: per-group aggregate values (parallel to ``group_keys``), when the
    #: query's aggregate targets a column; COUNT(*) yields group sizes
    values: np.ndarray | None = None
    #: distinct key combinations, one column per group-by key
    group_keys: np.ndarray | None = None


def _required_capacity(groups: int, load_factor: float) -> int:
    """Smallest power-of-two capacity holding ``groups`` resize-free."""
    return _next_power_of_two(max(1, int(np.ceil(groups / load_factor))))


def hash_aggregate(
    catalog: Catalog,
    query: CardQuery,
    tuples: dict[str, np.ndarray],
    estimated_ndv: float | None,
    default_capacity: int = 256,
    load_factor: float = 0.5,
    max_presize_capacity: int | None = None,
) -> AggregationResult:
    """Aggregate the join result by the query's group keys.

    ``estimated_ndv`` sizes the hash table up front (with the usual
    head-room of ``1 / load_factor``); ``None`` falls back to the engine's
    default capacity, reproducing the no-ByteCard configuration.  The
    pre-size is clamped to ``max_presize_capacity`` so an overestimated NDV
    cannot allocate an unbounded table; the over-allocation actually paid
    is reported as :attr:`AggregationResult.presize_waste`.
    """
    if not query.group_by:
        raise ExecutionError("hash_aggregate requires GROUP BY keys")
    if not tuples:
        raise ExecutionError("no join tuples supplied to aggregation")
    result_rows = int(next(iter(tuples.values())).size)

    presize_clamped = False
    if estimated_ndv is None:
        initial = default_capacity
    else:
        initial = max(1, int(np.ceil(estimated_ndv / load_factor)))
        if max_presize_capacity is not None and initial > max_presize_capacity:
            initial = max_presize_capacity
            presize_clamped = True
    table = SimulatedHashTable(initial_capacity=initial, load_factor=load_factor)

    if result_rows == 0:
        return AggregationResult(
            groups=0,
            rows_aggregated=0,
            resize_count=0,
            moved_entries=0,
            initial_capacity=table.capacity,
            final_capacity=table.capacity,
            presize_waste=max(
                0, table.capacity - _required_capacity(0, load_factor)
            ),
            presize_clamped=presize_clamped,
        )

    key_rows = []
    for table_name, column in query.group_by:
        if table_name not in tuples:
            raise ExecutionError(
                f"group-by key {table_name}.{column} not in the join result"
            )
        values = catalog.table(table_name).column(column).values[tuples[table_name]]
        key_rows.append(values.astype(np.int64))
    # Composite keys -> one integer id per distinct combination.
    first_index, inverse = _group_rows(key_rows)
    table.insert_stream(inverse)
    values = _aggregate_values(catalog, query, tuples, inverse, table.distinct)

    return AggregationResult(
        groups=table.distinct,
        rows_aggregated=result_rows,
        resize_count=table.resize_count,
        moved_entries=table.moved_entries,
        initial_capacity=initial if estimated_ndv is not None else default_capacity,
        final_capacity=table.capacity,
        presize_waste=max(
            0, table.capacity - _required_capacity(table.distinct, load_factor)
        ),
        presize_clamped=presize_clamped,
        values=values,
        group_keys=np.stack([keys[first_index] for keys in key_rows]),
    )


def _group_rows(key_rows: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """``(first row of each group, group id of each row)``, groups in
    lexicographic key order -- a column-wise ``np.unique`` of the stacked
    keys, without its structured sort.  Keys are dense-ranked one by one and
    folded in most-significant-first, re-densified after each key so the
    folded ids stay below ``rows ** 2``.
    """
    _, first_index, inverse = np.unique(
        key_rows[0], return_index=True, return_inverse=True
    )
    for values in key_rows[1:]:
        uniques, ranks = np.unique(values, return_inverse=True)
        folded = inverse.reshape(-1) * uniques.size + ranks.reshape(-1)
        _, first_index, inverse = np.unique(
            folded, return_index=True, return_inverse=True
        )
    # ``inverse``'s shape has changed across numpy 2.x releases.
    return first_index, inverse.reshape(-1)


def _aggregate_values(
    catalog: Catalog,
    query: CardQuery,
    tuples: dict[str, np.ndarray],
    group_ids: np.ndarray,
    num_groups: int,
) -> np.ndarray:
    """Compute the per-group aggregate (COUNT, SUM, AVG, MIN, MAX,
    COUNT DISTINCT) over the join result."""
    from repro.sql.query import AggKind

    kind = query.agg.kind
    counts = np.bincount(group_ids, minlength=num_groups).astype(np.float64)
    if kind is AggKind.COUNT:
        return counts
    assert query.agg.table is not None and query.agg.column is not None
    if query.agg.table not in tuples:
        raise ExecutionError(
            f"aggregate target {query.agg.table}.{query.agg.column} not in "
            "the join result"
        )
    target = catalog.table(query.agg.table).column(query.agg.column).values[
        tuples[query.agg.table]
    ].astype(np.float64)
    if kind is AggKind.COUNT_DISTINCT:
        first_index, _ = _group_rows([group_ids, target])
        return np.bincount(
            group_ids[first_index], minlength=num_groups
        ).astype(np.float64)
    if kind is AggKind.SUM or kind is AggKind.AVG:
        sums = np.zeros(num_groups, dtype=np.float64)
        np.add.at(sums, group_ids, target)
        if kind is AggKind.SUM:
            return sums
        return sums / np.maximum(counts, 1.0)
    if kind is AggKind.MIN:
        out = np.full(num_groups, np.inf)
        np.minimum.at(out, group_ids, target)
        return out
    if kind is AggKind.MAX:
        out = np.full(num_groups, -np.inf)
        np.maximum.at(out, group_ids, target)
        return out
    raise ExecutionError(f"unsupported aggregate kind {kind}")
