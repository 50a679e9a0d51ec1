"""The optimizer: where cardinality estimates become plan decisions.

Three decisions, each one of the paper's enhanced strategies:

* **column order** for the multi-stage reader -- greedy conditional-
  selectivity ordering; a correlation-aware estimator (the BN) orders
  correlated columns together, reproducing Example 1's I/O win.  The
  enumeration early-stops once the prefix selectivity exceeds a threshold
  (the paper's constrained enumeration);
* **reader selection** -- multi-stage when the table's overall estimated
  selectivity is below the threshold (highly selective predicates),
  single-stage otherwise;
* **join order** -- greedy smallest-intermediate-first ordering driven by
  join-size estimates (FactorJoin in the learned configuration).

The optimizer also totals the estimation overhead it incurred, which the
cost model folds into the query's latency -- the term that penalizes the
sample-based method end-to-end.

A repeated query is planned once per model snapshot and table state: each
optimizer memoizes its plans (:attr:`Optimizer.memo`), keyed by the bound
query, the catalog's :meth:`~repro.storage.catalog.Catalog.table_state` of
every table it touches and its estimators' ``cache_key`` tokens, all read
before planning.  An estimator whose tokens are ``None`` is never
memoized, and neither is a plan that any decision consulted a fallback
for.  The fleet's token is its workers' incarnation, which every worker
restart bumps.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.engine.config import EngineConfig
from repro.engine.partitioned import prune_partitions
from repro.engine.readers import ReaderKind
from repro.errors import EstimationError
from repro.estimators.base import CountEstimator, NdvEstimator
from repro.obs.metrics import MetricsRegistry
from repro.sql.query import CardQuery, JoinCondition
from repro.utils.lru import GenerationLRU

#: plans each optimizer memoizes (see :meth:`Optimizer.plan`)
PLAN_MEMO_ENTRIES = 256


@dataclass
class PhysicalPlan:
    """The optimizer's output for one query."""

    query: CardQuery
    readers: dict[str, ReaderKind] = field(default_factory=dict)
    column_orders: dict[str, list[str]] = field(default_factory=dict)
    join_order: list[JoinCondition] = field(default_factory=list)
    estimated_group_ndv: float | None = None
    estimation_cost: float = 0.0
    #: per-table estimated selectivities (for introspection/tests)
    table_selectivities: dict[str, float] = field(default_factory=dict)
    #: wall-clock seconds spent per plan decision (``selectivity:t``,
    #: ``column_order:t``, ``join_order``, ``group_ndv``)
    decision_timings: dict[str, float] = field(default_factory=dict)
    #: per-decision estimate provenance counts: how each consulted estimate
    #: was produced (cache / model / fallback-* when planning through the
    #: serving tier, ``direct`` for bare estimators)
    decision_provenance: dict[str, dict[str, int]] = field(default_factory=dict)
    #: total partitions per planned table (only multi-partition tables)
    partition_counts: dict[str, int] = field(default_factory=dict)
    #: partitions refuted by zone maps at plan time, per table
    pruned_partitions: dict[str, tuple[int, ...]] = field(default_factory=dict)
    #: estimated surviving rows per table (selectivity x row count) -- the
    #: executor pairs these with observed scan cardinalities for the
    #: runtime feedback log
    estimated_table_rows: dict[str, float] = field(default_factory=dict)
    #: estimated intermediate size after each step of ``join_order``
    #: (parallel lists); ``inf`` marks a step the estimator failed on
    join_step_estimates: list[float] = field(default_factory=list)

    def copy(self, decision_timings: dict[str, float]) -> "PhysicalPlan":
        """This plan with containers of its own and ``decision_timings``."""
        return PhysicalPlan(
            query=self.query,
            readers=dict(self.readers),
            column_orders={t: list(c) for t, c in self.column_orders.items()},
            join_order=list(self.join_order),
            estimated_group_ndv=self.estimated_group_ndv,
            estimation_cost=self.estimation_cost,
            table_selectivities=dict(self.table_selectivities),
            decision_timings=decision_timings,
            decision_provenance={
                d: dict(sources) for d, sources in self.decision_provenance.items()
            },
            partition_counts=dict(self.partition_counts),
            pruned_partitions=dict(self.pruned_partitions),
            estimated_table_rows=dict(self.estimated_table_rows),
            join_step_estimates=list(self.join_step_estimates),
        )

    @property
    def degraded(self) -> bool:
        """Some decision consulted a fallback (``fallback-*`` provenance)."""
        return any(
            source.startswith("fallback")
            for sources in self.decision_provenance.values()
            for source in sources
        )


class Optimizer:
    """Plans queries with a pluggable estimator pair."""

    def __init__(
        self,
        count_estimator: CountEstimator,
        ndv_estimator: NdvEstimator | None,
        config: EngineConfig | None = None,
        registry: MetricsRegistry | None = None,
        catalog=None,
    ):
        """``count_estimator`` is any :class:`CountEstimator` -- a bare
        model (``ByteCard``, ``SelingerEstimator``, ...), the serving tier
        or the fleet router.

        ``catalog`` enables plan-time partition pruning (falls back to the
        estimator's own catalog when omitted).
        """
        self.count_estimator = count_estimator
        self.ndv_estimator = ndv_estimator
        self.config = config or EngineConfig()
        self.registry = registry if registry is not None else MetricsRegistry(enabled=False)
        self.catalog = catalog if catalog is not None else count_estimator.catalog
        #: memoized plans (see :meth:`plan`)
        self.memo = GenerationLRU(PLAN_MEMO_ENTRIES, self.registry, "plan_memo")

    # ------------------------------------------------------------------
    def plan(self, query: CardQuery) -> PhysicalPlan:
        """Plan ``query``, or copy the plan memoized under its key.

        A memo hit carries the stored estimates, decisions, provenance and
        estimation cost, and one ``plan_memo`` decision timing.  Only a
        plan no decision degraded for is stored.
        """
        start = time.perf_counter()
        key = self._memo_key(query)
        if key is None:
            return self._plan(query)
        stored = self.memo.get(key)
        if stored is not None:
            return stored.copy({"plan_memo": time.perf_counter() - start})
        plan = self._plan(query)
        if not plan.degraded:
            self.memo.put(key, plan.copy({}))
        return plan

    def _memo_key(self, query: CardQuery) -> tuple | None:
        """What a plan of ``query`` is computed from, read before planning:
        None when the catalog or an estimator cannot name it."""
        catalog = self.catalog
        if catalog is None:
            return None
        count_tokens = self.count_estimator.cache_key("count", query)
        if count_tokens is None:
            return None
        ndv_tokens = ()
        if query.group_by and self.ndv_estimator is not None:
            ndv_tokens = self.ndv_estimator.cache_key("group_ndv", query)
            if ndv_tokens is None:
                return None
        states = tuple(map(catalog.table_state, query.tables))
        return (query, states, count_tokens, ndv_tokens)

    def _plan(self, query: CardQuery) -> PhysicalPlan:
        plan = PhysicalPlan(query=query)
        for table in query.tables:
            with self._decision(plan, f"selectivity:{table}", "selectivity"):
                selectivity = self._table_selectivity(query, table, plan)
            plan.table_selectivities[table] = selectivity
            plan.readers[table] = self._choose_reader(selectivity)
            if plan.readers[table] is ReaderKind.MULTI_STAGE:
                with self._decision(plan, f"column_order:{table}", "column_order"):
                    plan.column_orders[table] = self._choose_column_order(
                        query, table, plan
                    )
            self._plan_partitions(query, table, plan)
            rows = self._table_rows(table)
            if rows:
                plan.estimated_table_rows[table] = selectivity * rows
        if query.joins:
            with self._decision(plan, "join_order", "join_order"):
                plan.join_order = self._choose_join_order(query, plan)
        if query.group_by and self.ndv_estimator is not None:
            with self._decision(plan, "group_ndv", "group_ndv"):
                plan.estimated_group_ndv = self._estimate_group_ndv(query, plan)
        return plan

    # ------------------------------------------------------------------
    @contextmanager
    def _decision(self, plan: PhysicalPlan, name: str, kind: str):
        """Time one plan decision into the plan and the registry."""
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            plan.decision_timings[name] = (
                plan.decision_timings.get(name, 0.0) + elapsed
            )
            self.registry.histogram(
                "optimizer_decision_seconds", decision=kind
            ).observe(elapsed)

    def _note_provenance(
        self, plan: PhysicalPlan, decision: str, source: str, count: int = 1
    ) -> None:
        if count <= 0:
            return
        bucket = plan.decision_provenance.setdefault(decision, {})
        bucket[source] = bucket.get(source, 0) + count

    def _note_pass_counts(self, plan: PhysicalPlan, decision: str) -> None:
        """Record the estimator's actual BN pass accounting, when exposed.

        Shared-belief estimators (FactorJoin/ByteCard) publish a per-thread
        ``last_pass_stats`` after each join estimate; folding it into the
        decision provenance makes ``explain_result`` show how many inference
        passes each decision really ran vs. what the naive path would have.
        """
        stats = self.count_estimator.last_pass_stats
        if stats is None:
            return
        self._note_provenance(plan, decision, "bn_pass", stats.executed)
        self._note_provenance(plan, decision, "bn_pass_saved", stats.saved)

    def _selectivity_with_provenance(
        self, plan: PhysicalPlan, decision: str, subquery: CardQuery
    ) -> float:
        detail = self.count_estimator.selectivity_detail(subquery)
        self._note_provenance(plan, decision, detail.source)
        if detail.source == "direct":
            self._note_pass_counts(plan, decision)
        return float(detail.value)

    def _estimate_count_with_provenance(
        self, plan: PhysicalPlan, decision: str, subquery: CardQuery
    ) -> float:
        detail = self.count_estimator.estimate_count_detail(subquery)
        self._note_provenance(plan, decision, detail.source)
        if detail.source == "direct":
            self._note_pass_counts(plan, decision)
        return float(detail.value)

    def _charge(self, plan: PhysicalPlan, subquery: CardQuery) -> None:
        plan.estimation_cost += self.count_estimator.estimation_overhead(subquery)

    def _table_selectivity(
        self, query: CardQuery, table: str, plan: PhysicalPlan
    ) -> float:
        subquery = query.single_table_subquery(table)
        self._charge(plan, subquery)
        decision = f"selectivity:{table}"
        try:
            return self._selectivity_with_provenance(plan, decision, subquery)
        except (EstimationError, NotImplementedError):
            # Estimators without a selectivity interface (e.g. MSCN) fall
            # back to count / table-size when possible, else neutral.
            try:
                estimate = self._estimate_count_with_provenance(
                    plan, decision, subquery
                )
            except EstimationError:
                return 1.0
            rows = self._table_rows(table)
            return min(1.0, estimate / rows) if rows else 1.0

    def _table_rows(self, table: str) -> int:
        catalog = self.catalog
        if catalog is None:
            return 0
        return len(catalog.table(table))

    # ------------------------------------------------------------------
    # Partition-aware planning
    # ------------------------------------------------------------------
    def _catalog_table(self, table: str):
        if self.catalog is None or not self.catalog.has_table(table):
            return None
        return self.catalog.table(table)

    def _plan_partitions(
        self, query: CardQuery, table: str, plan: PhysicalPlan
    ) -> None:
        """Record which partitions zone maps refute at plan time; every
        survivor is scanned with the table's reader and column order."""
        tbl = self._catalog_table(table)
        if tbl is None or tbl.num_partitions <= 1 or not self.config.partition_pruning:
            return
        with self._decision(plan, f"partitions:{table}", "partition_plan"):
            _survivors, pruned = prune_partitions(tbl, query)
            plan.partition_counts[table] = tbl.num_partitions
            plan.pruned_partitions[table] = tuple(pruned)

    def _choose_reader(self, selectivity: float) -> ReaderKind:
        if selectivity < self.config.reader_selectivity_threshold:
            return ReaderKind.MULTI_STAGE
        return ReaderKind.SINGLE_STAGE

    def _choose_column_order(
        self, query: CardQuery, table: str, plan: PhysicalPlan
    ) -> list[str]:
        """Greedy conditional-selectivity ordering of filter columns.

        At each step, append the column whose addition to the already-chosen
        prefix yields the lowest estimated *combined* selectivity -- this is
        what lets a correlation-aware model read ``col2`` and ``col3``
        before ``col1`` in the paper's Example 1.
        """
        predicates = query.predicates_on(table)
        columns = list(dict.fromkeys(p.column for p in predicates))
        # OR-group columns are evaluated last (after the AND stages).
        for group in query.or_groups:
            for pred in group:
                if pred.table == table and pred.column not in columns:
                    columns.append(pred.column)
        and_columns = list(dict.fromkeys(p.column for p in predicates))
        ordered: list[str] = []
        remaining = list(and_columns)
        prefix_selectivity = 1.0
        while remaining:
            if prefix_selectivity > self.config.column_order_early_stop and ordered:
                # Constrained enumeration: prefix is already non-selective
                # enough that further ordering effort cannot pay off.
                ordered.extend(remaining)
                break
            best_column = None
            best_selectivity = float("inf")
            for column in remaining:
                chosen = [
                    p
                    for p in predicates
                    if p.column in ordered or p.column == column
                ]
                subquery = query.single_table_subquery(table).with_predicates(chosen)
                self._charge(plan, subquery)
                try:
                    selectivity = self._selectivity_with_provenance(
                        plan, f"column_order:{table}", subquery
                    )
                except (EstimationError, NotImplementedError):
                    selectivity = 1.0
                if selectivity < best_selectivity:
                    best_selectivity = selectivity
                    best_column = column
            assert best_column is not None
            ordered.append(best_column)
            remaining.remove(best_column)
            prefix_selectivity = best_selectivity
        # Append OR-group-only columns at the end.
        ordered.extend(c for c in columns if c not in ordered)
        return ordered

    def _choose_join_order(
        self, query: CardQuery, plan: PhysicalPlan
    ) -> list[JoinCondition]:
        if self.config.join_order_strategy == "dp":
            return self._dp_join_order(query, plan)
        return self._greedy_join_order(query, plan)

    def _greedy_join_order(
        self, query: CardQuery, plan: PhysicalPlan
    ) -> list[JoinCondition]:
        """Greedy smallest-intermediate-first join ordering."""
        start = min(
            query.tables,
            key=lambda t: plan.table_selectivities.get(t, 1.0)
            * max(1, self._table_rows(t)),
        )
        joined = {start}
        order: list[JoinCondition] = []
        used_joins: list[JoinCondition] = []
        remaining = list(query.joins)
        while remaining:
            candidates = [
                j
                for j in remaining
                if (j.left_table in joined) != (j.right_table in joined)
            ]
            if not candidates:
                # Shouldn't happen for connected tree queries, but stay safe.
                candidates = remaining[:1]
            best_join = None
            best_size = float("inf")
            for join in candidates:
                new_tables = joined | set(join.tables())
                subquery = self._connected_subquery(query, new_tables, used_joins + [join])
                self._charge(plan, subquery)
                try:
                    size = self._estimate_count_with_provenance(
                        plan, "join_order", subquery
                    )
                except EstimationError:
                    size = float("inf")
                if size < best_size:
                    best_size = size
                    best_join = join
            assert best_join is not None
            order.append(best_join)
            plan.join_step_estimates.append(best_size)
            used_joins.append(best_join)
            joined |= set(best_join.tables())
            remaining.remove(best_join)
        return order

    def _dp_join_order(
        self, query: CardQuery, plan: PhysicalPlan
    ) -> list[JoinCondition]:
        """Exact left-deep join ordering by dynamic programming.

        States are connected table subsets; the cost of a state is the sum
        of estimated intermediate sizes along its best build order (the
        quantity the executor's materialization cost charges).  Exponential
        in the number of tables, which is fine for the paper's <= 8-way
        joins.
        """
        tables = list(query.tables)
        index_of = {t: i for i, t in enumerate(tables)}
        full_mask = (1 << len(tables)) - 1

        # Adjacency: join conditions between table pairs.
        edges: dict[frozenset[str], JoinCondition] = {}
        for join in query.joins:
            edges[frozenset(join.tables())] = join

        size_cache: dict[int, float] = {}

        def subset_size(mask: int) -> float:
            if mask in size_cache:
                return size_cache[mask]
            subset = {tables[i] for i in range(len(tables)) if mask & (1 << i)}
            joins = [
                join
                for pair, join in edges.items()
                if pair <= subset
            ]
            subquery = self._connected_subquery(query, subset, joins)
            self._charge(plan, subquery)
            try:
                size = self._estimate_count_with_provenance(
                    plan, "join_order", subquery
                )
            except EstimationError:
                size = float("inf")
            size_cache[mask] = size
            return size

        # best[mask] = (total intermediate cost, join order reaching mask)
        best: dict[int, tuple[float, list[JoinCondition]]] = {}
        for i, table in enumerate(tables):
            best[1 << i] = (0.0, [])
        frontier = sorted(best)
        while frontier:
            next_states: set[int] = set()
            for mask in frontier:
                cost, order = best[mask]
                in_set = {tables[i] for i in range(len(tables)) if mask & (1 << i)}
                for pair, join in edges.items():
                    left, right = tuple(pair)
                    new = None
                    if left in in_set and right not in in_set:
                        new = right
                    elif right in in_set and left not in in_set:
                        new = left
                    if new is None:
                        continue
                    new_mask = mask | (1 << index_of[new])
                    new_cost = cost + subset_size(new_mask)
                    entry = best.get(new_mask)
                    if entry is None or new_cost < entry[0]:
                        best[new_mask] = (new_cost, order + [join])
                        next_states.add(new_mask)
            frontier = sorted(next_states)
        final = best.get(full_mask)
        if final is None:
            # Disconnected under the available edges; fall back to greedy.
            return self._greedy_join_order(query, plan)
        order = final[1]
        # Reconstruct the per-step size estimates along the chosen order
        # from the DP's memo (every prefix state was costed there).
        running = 0
        for join in order:
            for table in join.tables():
                running |= 1 << index_of[table]
            plan.join_step_estimates.append(
                size_cache.get(running, float("inf"))
            )
        return order

    @staticmethod
    def _connected_subquery(
        query: CardQuery, tables: set[str], joins: list[JoinCondition]
    ) -> CardQuery:
        ordered_tables = tuple(t for t in query.tables if t in tables)
        predicates = tuple(p for p in query.predicates if p.table in tables)
        or_groups = tuple(
            group
            for group in query.or_groups
            if all(p.table in tables for p in group)
        )
        return CardQuery(
            tables=ordered_tables,
            joins=tuple(joins),
            predicates=predicates,
            or_groups=or_groups,
            name=f"{query.name}:sub",
        )

    def _estimate_group_ndv(
        self, query: CardQuery, plan: PhysicalPlan
    ) -> float | None:
        assert self.ndv_estimator is not None
        plan.estimation_cost += self.ndv_estimator.estimation_overhead(query)
        try:
            detail = self.ndv_estimator.group_ndv_detail(query)
        except EstimationError:
            # Includes estimators without a group-key model: the base
            # contract signals "unsupported" through this channel.
            return None
        self._note_provenance(plan, "group_ndv", detail.source)
        return float(detail.value)
