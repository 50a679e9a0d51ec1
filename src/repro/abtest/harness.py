"""Side-by-side strategy comparison: plan decisions and Q-Error.

An :class:`ABHarness` plans (and estimates) every query of a workload
under **two** estimation strategies and emits a structured diff: where
the two plans diverge (join order, reader choice, partition pruning,
column order), what each side estimated, and each side's Q-Error against
the true cardinality.  This is the offline safety net behind strategy
rollouts -- before routing production traffic to a new strategy, the
diff shows exactly *which plan decisions would change* and whether the
accuracy delta justifies them.

Both sides plan through the ordinary :class:`~repro.engine.optimizer.
Optimizer`, so every comparison exercises the same protocol surface
production uses; the serving tier keeps the two sides' cached estimates
apart via the strategy-scoped cache keys (see
:func:`repro.serving.fingerprint.request_fingerprint`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

from repro.engine.config import EngineConfig
from repro.engine.optimizer import Optimizer, PhysicalPlan
from repro.errors import EstimationError
from repro.estimators.base import CountEstimator
from repro.metrics.qerror import qerror
from repro.metrics.quantiles import quantile
from repro.sql.query import CardQuery
from repro.storage.catalog import Catalog
from repro.workloads.truth import true_count

__all__ = ["ABHarness", "ABReport", "QueryDiff"]


def _join_order_names(plan: PhysicalPlan) -> list[str]:
    ordered = []
    for join in plan.join_order:
        j = join.normalized()
        ordered.append(
            f"{j.left_table}.{j.left_column}={j.right_table}.{j.right_column}"
        )
    return ordered


@dataclass
class QueryDiff:
    """One query's plan-decision and accuracy diff between two strategies."""

    query: str
    #: the cache scopes the two sides actually answered under (a router's
    #: routed chain id, not just its configured name)
    scope_a: str
    scope_b: str
    join_order_a: list[str] = field(default_factory=list)
    join_order_b: list[str] = field(default_factory=list)
    #: table -> (reader_a, reader_b), only where they differ
    reader_diffs: dict[str, tuple[str, str]] = field(default_factory=dict)
    #: table -> (pruned_a, pruned_b), only where they differ
    pruning_diffs: dict[str, tuple[list[int], list[int]]] = field(
        default_factory=dict
    )
    #: table -> (order_a, order_b), only where they differ
    column_order_diffs: dict[str, tuple[list[str], list[str]]] = field(
        default_factory=dict
    )
    estimate_a: float | None = None
    estimate_b: float | None = None
    true_count: float | None = None
    qerror_a: float | None = None
    qerror_b: float | None = None

    @property
    def join_order_differs(self) -> bool:
        return self.join_order_a != self.join_order_b

    @property
    def plan_differs(self) -> bool:
        return bool(
            self.join_order_differs
            or self.reader_diffs
            or self.pruning_diffs
            or self.column_order_diffs
        )

    def to_dict(self) -> dict:
        return {
            "query": self.query,
            "scope_a": self.scope_a,
            "scope_b": self.scope_b,
            "plan_differs": self.plan_differs,
            "join_order_differs": self.join_order_differs,
            "join_order_a": self.join_order_a,
            "join_order_b": self.join_order_b,
            "reader_diffs": {
                t: list(pair) for t, pair in sorted(self.reader_diffs.items())
            },
            "pruning_diffs": {
                t: [list(a), list(b)]
                for t, (a, b) in sorted(self.pruning_diffs.items())
            },
            "column_order_diffs": {
                t: [list(a), list(b)]
                for t, (a, b) in sorted(self.column_order_diffs.items())
            },
            "estimate_a": self.estimate_a,
            "estimate_b": self.estimate_b,
            "true_count": self.true_count,
            "qerror_a": self.qerror_a,
            "qerror_b": self.qerror_b,
        }


def _qerror_stats(qerrors: list[float]) -> dict:
    finite = [q for q in qerrors if math.isfinite(q)]
    if not finite:
        return {"count": 0, "p50": None, "p90": None, "max": None}
    return {
        "count": len(finite),
        "p50": quantile(finite, 0.5),
        "p90": quantile(finite, 0.9),
        "max": max(finite),
    }


@dataclass
class ABReport:
    """The workload-level outcome of one A/B comparison."""

    strategy_a: str
    strategy_b: str
    diffs: list[QueryDiff] = field(default_factory=list)

    @property
    def queries(self) -> int:
        return len(self.diffs)

    @property
    def plans_differing(self) -> int:
        return sum(1 for d in self.diffs if d.plan_differs)

    def summary(self) -> dict:
        return {
            "strategy_a": self.strategy_a,
            "strategy_b": self.strategy_b,
            "queries": self.queries,
            "plans_differing": self.plans_differing,
            "join_orders_differing": sum(
                1 for d in self.diffs if d.join_order_differs
            ),
            "reader_choices_differing": sum(
                1 for d in self.diffs if d.reader_diffs
            ),
            "pruning_differing": sum(1 for d in self.diffs if d.pruning_diffs),
            "qerror_a": _qerror_stats(
                [d.qerror_a for d in self.diffs if d.qerror_a is not None]
            ),
            "qerror_b": _qerror_stats(
                [d.qerror_b for d in self.diffs if d.qerror_b is not None]
            ),
        }

    def to_dict(self) -> dict:
        return {
            "summary": self.summary(),
            "queries": [d.to_dict() for d in self.diffs],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


class ABHarness:
    """Runs two strategies side by side over one workload.

    Each side gets its own :class:`Optimizer` (shared engine config and
    catalog), so the comparison covers every estimate-driven plan
    decision, not just the final COUNT.  ``compute_truth`` (default on)
    executes the exact counting path of :func:`repro.workloads.truth.
    true_count` per query to anchor Q-Errors; switch it off for
    plan-decision-only diffs over workloads too large to count exactly.

    The report labels each side by its estimator's ``name``; a one-link
    :class:`~repro.estimators.strategy.StrategyChain` names an estimator
    (``StrategyChain({"learned": model})``).
    """

    def __init__(
        self,
        catalog: Catalog,
        strategy_a: CountEstimator,
        strategy_b: CountEstimator,
        config: EngineConfig | None = None,
        registry=None,
        compute_truth: bool = True,
    ):
        self.catalog = catalog
        self.strategy_a = strategy_a
        self.strategy_b = strategy_b
        self.config = config or EngineConfig()
        self.compute_truth = compute_truth
        self.optimizer_a = Optimizer(
            strategy_a, None, self.config, registry, catalog=catalog
        )
        self.optimizer_b = Optimizer(
            strategy_b, None, self.config, registry, catalog=catalog
        )

    # ------------------------------------------------------------------
    def _estimate(self, strategy: CountEstimator, query: CardQuery):
        try:
            value = float(strategy.estimate_count(query))
        except (EstimationError, NotImplementedError):
            return None
        return value if math.isfinite(value) else None

    def compare(self, query: CardQuery, truth: float | None = None) -> QueryDiff:
        """Plan and estimate one query under both strategies.

        ``truth`` short-circuits the exact count when the workload already
        carries it (generated workloads record ``true_counts``).
        """
        plan_a = self.optimizer_a.plan(query)
        plan_b = self.optimizer_b.plan(query)
        diff = QueryDiff(
            query=query.name or "query",
            scope_a=plan_a.strategy,
            scope_b=plan_b.strategy,
            join_order_a=_join_order_names(plan_a),
            join_order_b=_join_order_names(plan_b),
        )
        for table in query.tables:
            reader_a = plan_a.readers.get(table)
            reader_b = plan_b.readers.get(table)
            if reader_a != reader_b:
                diff.reader_diffs[table] = (
                    reader_a.value if reader_a else "",
                    reader_b.value if reader_b else "",
                )
            pruned_a = sorted(plan_a.pruned_partitions.get(table, ()))
            pruned_b = sorted(plan_b.pruned_partitions.get(table, ()))
            if pruned_a != pruned_b:
                diff.pruning_diffs[table] = (pruned_a, pruned_b)
            order_a = list(plan_a.column_orders.get(table, []))
            order_b = list(plan_b.column_orders.get(table, []))
            if order_a != order_b:
                diff.column_order_diffs[table] = (order_a, order_b)
        diff.estimate_a = self._estimate(self.strategy_a, query)
        diff.estimate_b = self._estimate(self.strategy_b, query)
        if truth is None and self.compute_truth:
            truth = float(true_count(self.catalog, query))
        if truth is not None:
            diff.true_count = float(truth)
            if diff.estimate_a is not None:
                diff.qerror_a = qerror(diff.estimate_a, diff.true_count)
            if diff.estimate_b is not None:
                diff.qerror_b = qerror(diff.estimate_b, diff.true_count)
        return diff

    def run(self, workload) -> ABReport:
        """The full workload comparison.

        ``workload`` is a sequence of queries or a generated
        :class:`~repro.workloads.generator.Workload`, whose recorded
        ``true_counts`` are reused instead of recounting.
        """
        queries: Sequence[CardQuery] = getattr(workload, "queries", workload)
        known: dict = getattr(workload, "true_counts", {})
        report = ABReport(
            strategy_a=self.strategy_a.name,
            strategy_b=self.strategy_b.name,
        )
        for query in queries:
            truth = known.get(query.name) if query.name else None
            report.diffs.append(self.compare(query, truth=truth))
        return report
