"""UES-style pessimistic upper bounds from zone-map / frequency statistics.

The learned stack minimizes *expected* error; for risk-averse routing
(tenants where one catastrophic under-estimate -- a broadcast join of a
billion-row intermediate -- costs more than many mild over-estimates) the
router needs an estimator whose answers are **guaranteed never to
underestimate**.  This is the UES idea (Hertzschuch et al., CIDR 2021):
compose per-join-key *maximum value frequencies* into a join-cardinality
upper bound, taking the minimum over candidate join trees.

Soundness argument, piece by piece:

* **single table** -- rows surviving zone-map pruning are a superset of
  the matching rows (``ZoneMap.refutes`` only refutes provably-empty
  partitions), so the sum of surviving partition sizes bounds the filtered
  cardinality.  An ``EQ`` predicate on a column matches at most the
  column's max value frequency ``MF`` rows; an ``IN`` over ``k`` values at
  most ``k * MF``.  Range predicates and OR-groups only shrink the result,
  so ignoring them keeps the bound an upper bound;
* **joins** -- root the join tree at any table; each row of the partial
  result extends along an edge to at most ``MF(child key)`` rows of the
  child table (no key value occurs more often).  So ``u(root) * prod(MF)``
  over the tree's child-side keys bounds the join, and the minimum over
  candidate roots is still a bound.  On cyclic graphs the bound walks a
  BFS spanning tree; the ignored residual edges only filter further.

Max frequencies are exact (one ``np.unique`` per column, cached per table
generation so streaming appends never serve a stale -- unsound -- value).
"""

from __future__ import annotations

import numpy as np

from repro.errors import EstimationError
from repro.estimators.base import CountEstimator
from repro.sql.query import CardQuery, PredicateOp
from repro.storage.catalog import Catalog
from repro.storage.partitions import prune_partitions

__all__ = ["UpperBoundEstimator"]


class UpperBoundEstimator(CountEstimator):
    """Guaranteed-never-underestimate COUNT bounds (the UES construction)."""

    name = "upper_bound"

    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        #: (table, column, generation-signature) -> exact max value frequency
        self._mf_cache: dict[tuple, float] = {}

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def max_frequency(self, table: str, column: str) -> float:
        """Exact maximum frequency of any single value in the column."""
        tbl = self.catalog.table(table)
        generations = tuple(
            tbl.partition_generation(i) for i in range(tbl.num_partitions)
        )
        key = (table, column, generations)
        cached = self._mf_cache.get(key)
        if cached is None:
            values = tbl.column(column).values
            if values.size == 0:
                cached = 0.0
            else:
                cached = float(np.unique(values, return_counts=True)[1].max())
            self._mf_cache[key] = cached
        return cached

    # ------------------------------------------------------------------
    # Single-table bound
    # ------------------------------------------------------------------
    def table_bound(self, query: CardQuery, table: str) -> float:
        """Upper bound on the filtered cardinality of one table."""
        survivors, _pruned = prune_partitions(self.catalog.table(table), query)
        bound = float(sum(partition.num_rows for partition in survivors))
        # Equality-shaped predicates cap the bound at the column's max
        # value frequency; everything else (ranges, NE, OR-groups) can
        # only shrink the true result further, so leaving it uncapped
        # keeps the bound sound.
        for pred in query.predicates_on(table):
            if pred.op is PredicateOp.EQ:
                bound = min(bound, self.max_frequency(table, pred.column))
            elif pred.op is PredicateOp.IN:
                members = len(pred.value)  # type: ignore[arg-type]
                bound = min(
                    bound, members * self.max_frequency(table, pred.column)
                )
        return bound

    # ------------------------------------------------------------------
    # CountEstimator interface
    # ------------------------------------------------------------------
    def selectivity(self, query: CardQuery) -> float:
        if not query.is_single_table():
            raise EstimationError("upper-bound selectivity is single-table")
        table = query.tables[0]
        rows = len(self.catalog.table(table))
        if rows == 0:
            return 0.0
        return min(1.0, self.table_bound(query, table) / rows)

    def estimate_count(self, query: CardQuery) -> float:
        if query.is_single_table():
            return self.table_bound(query, query.tables[0])
        # Adjacency of the join graph: table -> [(other table, child key)].
        adjacency: dict[str, list[tuple[str, str]]] = {
            t: [] for t in query.tables
        }
        for join in query.joins:
            norm = join.normalized()
            adjacency[norm.left_table].append(
                (norm.right_table, norm.right_column)
            )
            adjacency[norm.right_table].append(
                (norm.left_table, norm.left_column)
            )
        best = float("inf")
        for root in query.tables:
            total = self.table_bound(query, root)
            visited = {root}
            frontier = [root]
            while frontier and total < best:
                nxt: list[str] = []
                for parent in frontier:
                    for child, child_key in adjacency[parent]:
                        if child in visited:
                            continue
                        visited.add(child)
                        nxt.append(child)
                        # Each partial-result row extends to at most
                        # MF(child key) rows -- the UES expansion step.
                        total *= self.max_frequency(child, child_key)
                frontier = nxt
            # Tables the BFS never reached (disconnected join graph, or an
            # early exit once total >= best) contribute at worst a full
            # cross-product factor; multiplying keeps the bound sound.
            for other in query.tables:
                if other not in visited:
                    total *= self.table_bound(query, other)
            best = min(best, total)
        return best

    def estimation_overhead(self, query: CardQuery) -> float:
        # Zone-map probes plus cached frequency lookups: as cheap as the
        # sketch path, without per-predicate histogram walks.
        return 0.01 * (len(query.tables) + len(query.joins))
