"""Physical-plan execution and the cost model.

Executes a :class:`PhysicalPlan`: scans each table with its chosen reader
(charging block I/O), runs the hash joins in the chosen order, and -- for
GROUP BY queries -- hash-aggregates with the plan's NDV-driven initial
capacity.  The result carries the full cost breakdown the benchmarks plot:
blocks read (Figure 6a), resize counts (Figure 6b), and total latency in
cost units (Figure 5).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.engine.aggregation import AggregationResult, hash_aggregate
from repro.obs.metrics import MetricsRegistry
from repro.engine.config import EngineConfig
from repro.engine.join import JoinExecution, hash_join_step
from repro.engine.optimizer import Optimizer, PhysicalPlan
from repro.engine.partitioned import partitioned_scan
from repro.engine.readers import ReaderKind, ScanResult
from repro.errors import ExecutionError
from repro.feedback import FeedbackLog
from repro.metrics.latency import LatencyRecord
from repro.serving.fingerprint import query_fingerprint
from repro.sql.query import AggKind, CardQuery, JoinCondition
from repro.storage.catalog import Catalog
from repro.storage.io_stats import IOCounter


@dataclass
class QueryResult:
    """Everything the benchmarks need from one executed query."""

    query: CardQuery
    result_rows: int
    groups: int | None
    #: the query's scalar answer when it has no GROUP BY (COUNT(*) rows,
    #: SUM/AVG/MIN/MAX of the target, or the exact COUNT DISTINCT)
    aggregate_value: float | None
    blocks_read: int
    rows_scanned: int
    resize_count: int
    moved_entries: int
    estimation_cost: float
    io_cost: float
    cpu_cost: float
    scans: dict[str, ScanResult]
    aggregation: AggregationResult | None
    #: wall-clock seconds per execution stage (scan / join / aggregate)
    stage_timings: dict[str, float] = field(default_factory=dict)
    #: per-decision estimate provenance carried over from the plan (how the
    #: optimizer's estimates were produced, incl. actual vs. saved BN
    #: inference pass counts from shared-belief plans)
    estimate_provenance: dict[str, dict[str, int]] = field(default_factory=dict)
    #: mid-plan join-order re-rankings triggered by observed cardinalities
    adaptive_replans: int = 0

    @property
    def total_cost(self) -> float:
        return self.estimation_cost + self.io_cost + self.cpu_cost

    def latency_record(self) -> LatencyRecord:
        return LatencyRecord(
            query_id=self.query.name,
            estimation_cost=self.estimation_cost,
            io_cost=self.io_cost,
            cpu_cost=self.cpu_cost,
        )


class Executor:
    """Executes physical plans against a catalog."""

    def __init__(
        self,
        catalog: Catalog,
        config: EngineConfig | None = None,
        registry: MetricsRegistry | None = None,
        feedback: FeedbackLog | None = None,
    ):
        self.catalog = catalog
        self.config = config or EngineConfig()
        self.registry = registry if registry is not None else MetricsRegistry(enabled=False)
        #: runtime feedback ring; pairs the plan's (or the serving tier's)
        #: estimates with the actual cardinalities this executor observes.
        #: Only consulted when ``config.enable_feedback`` is set.
        self.feedback = feedback

    # ------------------------------------------------------------------
    def execute(self, plan: PhysicalPlan) -> QueryResult:
        query = plan.query
        io = IOCounter()
        stage_timings: dict[str, float] = {}
        scans: dict[str, ScanResult] = {}
        stage_start = time.perf_counter()
        for table_name in query.tables:
            table = self.catalog.table(table_name)
            payload = self._payload_columns(query, table_name)
            scans[table_name] = partitioned_scan(
                table,
                query,
                payload,
                io,
                reader=plan.readers.get(table_name, ReaderKind.SINGLE_STAGE),
                column_order=plan.column_orders.get(table_name),
                parallelism=self.config.scan_parallelism,
                prune=self.config.partition_pruning,
                registry=self.registry,
            )
        stage_timings["scan"] = time.perf_counter() - stage_start

        capture = self.feedback is not None and self.config.enable_feedback
        if capture:
            self._capture_scan_feedback(query, plan, scans)

        scanned_rows = {name: scan.row_indices for name, scan in scans.items()}
        stage_start = time.perf_counter()
        join_exec, adaptive_replans = self._execute_joins(
            query, plan, scanned_rows, capture
        )
        stage_timings["join"] = time.perf_counter() - stage_start

        aggregation: AggregationResult | None = None
        if query.group_by:
            stage_start = time.perf_counter()
            aggregation = hash_aggregate(
                self.catalog,
                query,
                join_exec.tuples,
                estimated_ndv=plan.estimated_group_ndv,
                default_capacity=self.config.default_hash_capacity,
                load_factor=self.config.hash_load_factor,
                max_presize_capacity=self.config.max_presize_capacity,
            )
            stage_timings["aggregate"] = time.perf_counter() - stage_start

        random_blocks = sum(s.random_blocks for s in scans.values())
        sequential_blocks = io.blocks_read - random_blocks
        io_cost = (
            sequential_blocks * self.config.io_block_cost
            + random_blocks
            * self.config.io_block_cost
            * self.config.random_read_multiplier
        )
        cpu_cost = self._cpu_cost(scans, join_exec, aggregation)
        aggregate_value = (
            self._scalar_aggregate(query, join_exec) if not query.group_by else None
        )
        self._record_metrics(io, scans, stage_timings, aggregation)
        return QueryResult(
            query=query,
            result_rows=join_exec.result_rows,
            groups=aggregation.groups if aggregation else None,
            aggregate_value=aggregate_value,
            blocks_read=io.blocks_read,
            rows_scanned=sum(s.rows_scanned for s in scans.values()),
            resize_count=aggregation.resize_count if aggregation else 0,
            moved_entries=aggregation.moved_entries if aggregation else 0,
            estimation_cost=plan.estimation_cost,
            io_cost=io_cost,
            cpu_cost=cpu_cost,
            scans=scans,
            aggregation=aggregation,
            stage_timings=stage_timings,
            estimate_provenance={
                decision: dict(sources)
                for decision, sources in plan.decision_provenance.items()
            },
            adaptive_replans=adaptive_replans,
        )

    # ------------------------------------------------------------------
    # Runtime feedback capture + the join driver
    # ------------------------------------------------------------------
    def _capture_scan_feedback(
        self,
        query: CardQuery,
        plan: PhysicalPlan,
        scans: dict[str, ScanResult],
    ) -> None:
        """Pair each scan's actual cardinality with its estimate.

        A pending served estimate (noted by the serving tier under the same
        canonical fingerprint) wins over the plan-recorded one because it
        carries provenance -- ``cache`` hits in particular never reach the
        optimizer's provenance accounting.

        Canonical fingerprints exist only to pair those pending estimates,
        and computing one means building the single-table subquery and
        serializing it -- the bulk of the capture cost.  When the pending
        side table is empty (no serving tier attached, the common
        engine-only deployment) a cheap positional key is recorded instead;
        the monitor consumes evidence by table scope, never by fingerprint.
        """
        feedback = self.feedback
        assert feedback is not None
        pair = feedback.pending_count > 0
        for table, scan in scans.items():
            if pair:
                fingerprint = query_fingerprint(
                    query.single_table_subquery(table)
                )
                pending = feedback.take_estimate(fingerprint)
            else:
                fingerprint = f"scan:{query.name or 'q'}:{table}"
                pending = None
            source = "plan"
            estimated: float | None
            if pending is not None:
                estimated = pending.value
                if pending.unit == "fraction":
                    estimated *= len(self.catalog.table(table))
                source = pending.source
            else:
                estimated = plan.estimated_table_rows.get(table)
            if estimated is None:
                continue
            feedback.record(
                fingerprint,
                (table,),
                estimated,
                float(scan.row_indices.size),
                source=source,
                kind="scan",
            )

    def _execute_joins(
        self,
        query: CardQuery,
        plan: PhysicalPlan,
        scanned_rows: dict[str, np.ndarray],
        capture: bool,
    ) -> tuple[JoinExecution, int]:
        """Drive the joins one step at a time -- the only join driver.

        After every step the actual intermediate cardinality is known; it is
        (a) recorded as join feedback when ``capture`` is on and (b) when
        adaptivity is on, compared against the plan's per-step estimate --
        when the deviation exceeds
        ``config.adaptive_replan_factor`` the remaining order is re-ranked
        on observed scan cardinalities (a valid linearization is preserved:
        every re-ranked step still connects to the joined prefix).
        """
        if not query.joins:
            table = query.tables[0]
            return JoinExecution(tuples={table: scanned_rows[table]}), 0
        order = list(plan.join_order)
        if len(order) != len(query.joins):
            raise ExecutionError(
                f"join order has {len(order)} steps for {len(query.joins)} joins"
            )
        estimates = plan.join_step_estimates
        execution = JoinExecution(
            tuples={order[0].left_table: scanned_rows[order[0].left_table]}
        )
        executed: list[JoinCondition] = []
        replans = 0
        factor = self.config.adaptive_replan_factor
        index = 0
        while index < len(order):
            join = order[index]
            out_rows = hash_join_step(
                self.catalog,
                execution,
                join,
                scanned_rows,
                max_intermediate_rows=self.config.max_intermediate_rows,
            )
            executed.append(join)
            # Plan-recorded estimates only line up with the original order;
            # after a replan the executed prefix diverges from what the
            # optimizer costed, so stop attributing its numbers.
            estimate: float | None = None
            if replans == 0 and index < len(estimates):
                estimate = estimates[index]
                if not math.isfinite(estimate):
                    estimate = None
            if capture:
                self._record_join_feedback(
                    query, plan, execution, executed, estimate
                )
            if (
                factor > 0
                and replans == 0
                and estimate is not None
                and estimate > 0
                and index + 1 < len(order)
            ):
                actual = max(float(out_rows), 1.0)
                expected = max(estimate, 1.0)
                deviation = max(actual / expected, expected / actual)
                if deviation > factor:
                    order = order[: index + 1] + self._rerank_remaining(
                        set(execution.tuples), order[index + 1 :], scanned_rows
                    )
                    replans += 1
                    self.registry.counter("adaptive_replan_total").inc()
            index += 1
        return execution, replans

    def _record_join_feedback(
        self,
        query: CardQuery,
        plan: PhysicalPlan,
        execution: JoinExecution,
        executed: list[JoinCondition],
        plan_estimate: float | None,
    ) -> None:
        feedback = self.feedback
        assert feedback is not None
        scope = tuple(sorted(execution.tuples))
        pending = None
        if feedback.pending_count > 0:
            # Canonical fingerprinting (subquery reconstruction + canonical
            # serialization) is only worth paying when a serving tier may
            # have noted an estimate to pair; see _capture_scan_feedback.
            subquery = Optimizer._connected_subquery(
                query, set(execution.tuples), executed
            )
            fingerprint = query_fingerprint(subquery)
            pending = feedback.take_estimate(fingerprint)
        else:
            fingerprint = f"join:{query.name or 'q'}:{'+'.join(scope)}"
        if pending is not None and pending.unit == "rows":
            estimated: float | None = pending.value
            source = pending.source
        else:
            estimated = plan_estimate
            source = "plan"
        if estimated is None:
            return
        feedback.record(
            fingerprint,
            scope,
            estimated,
            float(execution.result_rows),
            source=source,
            kind="join",
        )

    def _rerank_remaining(
        self,
        joined: set[str],
        remaining: list[JoinCondition],
        scanned_rows: dict[str, np.ndarray],
    ) -> list[JoinCondition]:
        """Greedy smallest-observed-next ordering of the leftover joins.

        Unlike planning-time ordering this ranks on *actual* scanned
        cardinalities -- free information the plan's estimates got wrong
        badly enough to trigger the replan.
        """
        joined = set(joined)
        queue = list(remaining)
        reordered: list[JoinCondition] = []
        while queue:
            candidates = [
                j
                for j in queue
                if (j.left_table in joined) != (j.right_table in joined)
            ]
            if not candidates:
                # Disconnected leftovers; keep their original relative order.
                candidates = queue[:1]

            def observed_size(condition: JoinCondition) -> int:
                left, right = condition.tables()
                new_table = right if left in joined else left
                rows = scanned_rows.get(new_table)
                return int(rows.size) if rows is not None else 0

            best = min(candidates, key=observed_size)
            reordered.append(best)
            joined |= set(best.tables())
            queue.remove(best)
        return reordered

    # ------------------------------------------------------------------
    def _record_metrics(
        self,
        io: IOCounter,
        scans: dict[str, ScanResult],
        stage_timings: dict[str, float],
        aggregation: AggregationResult | None,
    ) -> None:
        registry = self.registry
        if not registry.enabled:
            return
        registry.counter("engine_queries_total").inc()
        registry.counter("engine_blocks_read_total").inc(io.blocks_read)
        registry.counter("engine_rows_scanned_total").inc(
            sum(s.rows_scanned for s in scans.values())
        )
        for stage, seconds in stage_timings.items():
            registry.histogram("engine_stage_seconds", stage=stage).observe(
                seconds
            )
        if aggregation is not None:
            registry.counter("engine_hash_resizes_total").inc(
                aggregation.resize_count
            )
            registry.counter("engine_hash_moved_entries_total").inc(
                aggregation.moved_entries
            )
            registry.counter("engine_presize_waste_slots_total").inc(
                aggregation.presize_waste
            )
            if aggregation.presize_clamped:
                registry.counter("engine_presize_clamped_total").inc()

    # ------------------------------------------------------------------
    def _payload_columns(self, query: CardQuery, table: str) -> list[str]:
        """Columns of ``table`` the engine must materialize beyond filters."""
        payload: list[str] = []
        for join in query.joins_touching(table):
            column = join.side_for(table)
            if column not in payload:
                payload.append(column)
        for group_table, column in query.group_by:
            if group_table == table and column not in payload:
                payload.append(column)
        if query.agg.table == table and query.agg.column is not None:
            if query.agg.column not in payload:
                payload.append(query.agg.column)
        return payload

    def _scalar_aggregate(
        self, query: CardQuery, join_exec: JoinExecution
    ) -> float:
        """The query's scalar answer for the no-GROUP-BY case."""
        kind = query.agg.kind
        if kind is AggKind.COUNT:
            return float(join_exec.result_rows)
        assert query.agg.table is not None and query.agg.column is not None
        rows = join_exec.tuples.get(query.agg.table)
        if rows is None or rows.size == 0:
            return 0.0
        target = (
            self.catalog.table(query.agg.table)
            .column(query.agg.column)
            .values[rows]
            .astype(float)
        )
        if kind is AggKind.COUNT_DISTINCT:
            return float(np.unique(target).size)
        if kind is AggKind.SUM:
            return float(target.sum())
        if kind is AggKind.AVG:
            return float(target.mean())
        if kind is AggKind.MIN:
            return float(target.min())
        return float(target.max())

    def _cpu_cost(
        self,
        scans: dict[str, ScanResult],
        join_exec: JoinExecution,
        aggregation: AggregationResult | None,
    ) -> float:
        config = self.config
        cost = sum(s.rows_scanned for s in scans.values()) * config.cpu_tuple_cost
        # Incremental tuple construction of the multi-stage reader: every
        # surviving row of every stage is appended to a partial tuple.
        cost += (
            sum(sum(s.stage_survivors) for s in scans.values())
            * config.materialize_tuple_cost
        )
        cost += (join_exec.build_rows + join_exec.probe_rows) * config.join_tuple_cost
        cost += sum(join_exec.intermediate_sizes) * config.materialize_tuple_cost
        if aggregation is not None:
            cost += aggregation.rows_aggregated * config.agg_tuple_cost
            cost += aggregation.moved_entries * config.resize_move_cost
        return cost
