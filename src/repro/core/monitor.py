"""The Model Monitor: quality gating and fine-tune triggering.

Following the paper (Section 4.4.2): the monitor auto-generates test
queries with multiple predicates per table, executes them for true
cardinalities, computes Q-Errors of the deployed models, and

* **gates COUNT models**: a table whose single-table model exceeds the
  Q-Error threshold is put on the *fallback list* -- ByteCard reverts to
  the traditional estimator for queries touching it.  Only single-table
  models are assessed (computing true join sizes online is too expensive);
  since FactorJoin composes single-table models, monitoring them indirectly
  covers the multi-table estimates;
* **detects problematic NDV columns**: columns whose RBX estimates carry
  large Q-Errors (typically exceptionally high true NDVs) trigger the
  calibration fine-tuning procedure in ModelForge; the tuned weights are
  installed for those columns only, after validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import ByteCardConfig
from repro.datasets.base import DatasetBundle
from repro.estimators.base import CountEstimator, NdvEstimator
from repro.estimators.frequency import FrequencyProfile, frequency_profile
from repro.metrics.qerror import qerror
from repro.metrics.quantiles import quantile
from repro.obs.metrics import MetricsRegistry
from repro.sql.query import (
    AggKind,
    AggSpec,
    CardQuery,
    PredicateOp,
    TablePredicate,
)
from repro.utils.rng import derive_rng
from repro.workloads.truth import true_count, true_ndv


@dataclass
class MonitorReport:
    """Assessment of one model (a table's BN, or one NDV column).

    ``passed`` is tri-state: ``True``/``False`` for an assessed model, and
    ``None`` when no test query produced a q-error (e.g. a table with no
    usable filter columns).  An untested model must not be silently treated
    as passing -- callers decide explicitly, via :attr:`untested`.
    """

    name: str
    qerrors: list[float] = field(default_factory=list)
    passed: bool | None = None
    #: where the evidence came from: ``synthetic`` (generated test
    #: queries), ``feedback`` (runtime pairs only), or ``mixed``
    source: str = "synthetic"
    #: the subset of :attr:`qerrors` derived from runtime feedback -- the
    #: forge's observed-error-mass priority signal
    feedback_qerrors: list[float] = field(default_factory=list)

    @property
    def untested(self) -> bool:
        """True when the monitor could not generate any assessable query."""
        return not self.qerrors

    @property
    def p90(self) -> float | None:
        """p90 over the *finite* Q-Errors (``None`` when none are).

        A NaN slipped into the list (a buggy estimator, a hand-built
        report) must not poison the gate: ``quantile`` would propagate it
        into every decision downstream.
        """
        finite = [q for q in self.qerrors if math.isfinite(q)]
        return quantile(finite, 0.9) if finite else None

    @property
    def worst(self) -> float | None:
        finite = [q for q in self.qerrors if math.isfinite(q)]
        return max(finite) if finite else None

    @property
    def error_mass(self) -> float:
        """Sum of log-Q-Error over the feedback-derived evidence."""
        return sum(
            math.log(max(q, 1.0))
            for q in self.feedback_qerrors
            if math.isfinite(q)
        )


class ModelMonitor:
    """Generates test queries and gates model quality."""

    def __init__(
        self,
        bundle: DatasetBundle,
        config: ByteCardConfig | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.bundle = bundle
        self.config = config or ByteCardConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry(enabled=False)
        #: per-model p90 Q-Error across assessments, oldest first -- the
        #: drift record behind fallback-list churn
        self.drift: dict[str, list[float]] = {}
        #: callbacks invoked after every assessment with (report, kind);
        #: the forge's drift-triggered retrain loop subscribes here
        self._listeners: list = []
        #: runtime feedback evidence (attach_feedback); when present, a
        #: configurable share of synthetic test queries is replaced by
        #: observed (estimate, actual) pairs from real executions
        self.feedback = None
        self._rng = derive_rng(bundle.seed, "monitor")

    def attach_feedback(self, log) -> None:
        """Attach a :class:`repro.feedback.FeedbackLog` as drift evidence.

        Subsequent :meth:`assess_count_model` calls consume up to
        ``config.monitor_feedback_share`` of their evidence from the log
        (free -- no test queries executed for those), and
        :meth:`assess_from_feedback` becomes available for assessments
        driven purely by runtime pairs.
        """
        self.feedback = log

    def add_assessment_listener(self, listener) -> None:
        """Register ``listener(report, kind)`` to observe every assessment.

        ``kind`` is ``"count"`` or ``"ndv"``.  Listeners run synchronously
        after the assessment is recorded; they must not block.
        """
        self._listeners.append(listener)

    # ------------------------------------------------------------------
    # Test-query generation (the cardestbench-style generator)
    # ------------------------------------------------------------------
    def _random_predicates(
        self, table: str, count: int, exclude: str | None = None
    ) -> list[TablePredicate]:
        """``count`` random predicates on distinct filter columns.

        Columns are sampled *without replacement*: the retry loop this
        replaces could exhaust its draws on tables with few filter columns
        and silently return fewer predicates than requested, skewing
        assessments toward under-constrained queries.  Now a request for at
        least ``len(columns)`` predicates deterministically covers every
        filter column.
        """
        columns = [
            c for c in self.bundle.filter_columns.get(table, []) if c != exclude
        ]
        if not columns or count <= 0:
            return []
        catalog_table = self.bundle.catalog.table(table)
        if count >= len(columns):
            chosen = list(columns)
        else:
            picked = self._rng.choice(len(columns), size=count, replace=False)
            chosen = [columns[int(i)] for i in picked]
        predicates: list[TablePredicate] = []
        for column in chosen:
            values = catalog_table.column(column).values
            anchor = float(values[self._rng.integers(len(values))])
            roll = self._rng.random()
            if roll < 0.4:
                predicates.append(TablePredicate(table, column, PredicateOp.EQ, anchor))
            elif roll < 0.7:
                predicates.append(TablePredicate(table, column, PredicateOp.LE, anchor))
            else:
                predicates.append(TablePredicate(table, column, PredicateOp.GE, anchor))
        return predicates

    def generate_count_tests(
        self, table: str, count: int | None = None
    ) -> list[CardQuery]:
        """Multi-predicate single-table COUNT test queries for one table.

        ``count`` overrides ``config.monitor_queries_per_table`` -- the
        feedback-evidence path generates only the synthetic remainder.
        """
        if count is None:
            count = self.config.monitor_queries_per_table
        queries = []
        for index in range(count):
            num_predicates = int(self._rng.integers(1, 4))
            predicates = self._random_predicates(table, num_predicates)
            if not predicates:
                continue
            queries.append(
                CardQuery(
                    tables=(table,),
                    predicates=tuple(predicates),
                    name=f"monitor-{table}-{index:02d}",
                )
            )
        return queries

    def generate_ndv_tests(self, table: str, column: str) -> list[CardQuery]:
        """Filtered COUNT-DISTINCT test queries for one column."""
        queries = []
        for index in range(self.config.monitor_queries_per_table // 2):
            predicates = self._random_predicates(
                table, int(self._rng.integers(0, 3)), exclude=column
            )
            queries.append(
                CardQuery(
                    tables=(table,),
                    predicates=tuple(predicates),
                    agg=AggSpec(AggKind.COUNT_DISTINCT, table, column),
                    name=f"monitor-ndv-{table}-{column}-{index:02d}",
                )
            )
        return queries

    # ------------------------------------------------------------------
    # Assessments
    # ------------------------------------------------------------------
    def _consume_feedback_evidence(self, report: MonitorReport, budget: int) -> int:
        """Fold up to ``budget`` runtime feedback pairs into the report.

        Returns how many were used.  Consumed records are *removed* from
        the log: evidence against a model must not be replayed against its
        retrained successor.
        """
        if self.feedback is None or budget <= 0:
            return 0
        records = self.feedback.take_for_table(report.name, limit=budget)
        for record in records:
            q = record.qerror
            report.feedback_qerrors.append(q)
            report.qerrors.append(q)
        if records and self.metrics.enabled:
            self.metrics.counter(
                "monitor_feedback_evidence_total", model=report.name
            ).inc(len(records))
        return len(records)

    def _gate(self, report: MonitorReport, threshold: float) -> None:
        p90 = report.p90
        # p90 is None when untested *or* when every q-error was non-finite
        # (hand-built reports): both mean "not vetted", never "passing".
        report.passed = None if p90 is None else bool(p90 <= threshold)

    def _finite_estimate(self, estimate: float, model: str) -> bool:
        if math.isfinite(estimate):
            return True
        if self.metrics.enabled:
            self.metrics.counter(
                "monitor_nonfinite_estimates_total", model=model
            ).inc()
        return False

    def assess_count_model(
        self, table: str, estimator: CountEstimator
    ) -> MonitorReport:
        """Q-Error-gate one table's single-table COUNT model.

        With feedback attached, up to ``config.monitor_feedback_share`` of
        the evidence budget comes from observed runtime pairs -- free drift
        evidence replacing that many synthetic test queries.
        """
        report = MonitorReport(name=table)
        total = self.config.monitor_queries_per_table
        budget = int(round(total * self.config.monitor_feedback_share))
        used = self._consume_feedback_evidence(report, budget)
        for query in self.generate_count_tests(table, count=total - used):
            truth = true_count(self.bundle.catalog, query)
            estimate = estimator.estimate_count(query)
            if not self._finite_estimate(estimate, table):
                continue
            report.qerrors.append(qerror(estimate, truth))
        if used:
            report.source = "feedback" if used == len(report.qerrors) else "mixed"
        self._gate(report, self.config.qerror_gate)
        self._record_assessment(report, kind="count")
        return report

    def assess_from_feedback(self, table: str) -> MonitorReport | None:
        """Assess one table's COUNT model purely from runtime feedback.

        Zero synthetic test queries and zero estimator calls: the evidence
        is the (estimated, actual) pairs the executor captured.  Returns
        ``None`` when no feedback log is attached or it holds no
        single-table records for ``table`` -- *no evidence* is not the same
        as *untested-and-failing*.  Consumes the records it uses.
        """
        if self.feedback is None:
            return None
        records = self.feedback.take_for_table(table)
        if not records:
            return None
        report = MonitorReport(name=table, source="feedback")
        for record in records:
            q = record.qerror
            report.feedback_qerrors.append(q)
            report.qerrors.append(q)
        if self.metrics.enabled:
            self.metrics.counter(
                "monitor_feedback_evidence_total", model=table
            ).inc(len(records))
        self._gate(report, self.config.qerror_gate)
        self._record_assessment(report, kind="count")
        return report

    def assess_ndv_column(
        self, table: str, column: str, estimator: NdvEstimator
    ) -> MonitorReport:
        """Q-Error-check RBX on one column; flags fine-tune candidates."""
        report = MonitorReport(name=f"{table}.{column}")
        for query in self.generate_ndv_tests(table, column):
            truth = true_ndv(self.bundle.catalog, query)
            if truth == 0:
                continue
            estimate = estimator.estimate_ndv(query)
            if not self._finite_estimate(estimate, report.name):
                continue
            report.qerrors.append(qerror(estimate, truth))
        self._gate(report, self.config.ndv_finetune_trigger)
        self._record_assessment(report, kind="ndv")
        return report

    def _record_assessment(self, report: MonitorReport, kind: str) -> None:
        """One drift point per assessment: the model's p90 Q-Error."""
        p90 = report.p90
        if p90 is not None:
            self.drift.setdefault(report.name, []).append(p90)
        if self.metrics.enabled:
            self.metrics.counter(
                "monitor_assessments_total", kind=kind
            ).inc()
            if report.passed is False:
                self.metrics.counter("monitor_failures_total", kind=kind).inc()
            if p90 is not None:
                self.metrics.series(
                    "monitor_qerror_p90", model=report.name, kind=kind
                ).append(p90)
        for listener in self._listeners:
            listener(report, kind)

    # ------------------------------------------------------------------
    # Fine-tune corpus collection
    # ------------------------------------------------------------------
    def collect_column_samples(
        self,
        table: str,
        column: str,
        rates: tuple[float, ...] = (0.01, 0.03, 0.1),
        repeats: int = 4,
    ) -> list[tuple[FrequencyProfile, int]]:
        """(frequency profile, true NDV) pairs for calibration fine-tuning.

        Profiles are drawn at several sampling rates so the tuned model
        stays robust across the rates it will see in production.
        """
        catalog_table = self.bundle.catalog.table(table)
        values = catalog_table.column(column).values
        truth = int(np.unique(values).size)
        samples: list[tuple[FrequencyProfile, int]] = []
        for rate in rates:
            for _ in range(repeats):
                take = max(1, int(len(values) * rate))
                picked = values[
                    self._rng.choice(len(values), size=take, replace=False)
                ]
                samples.append(
                    (frequency_profile(picked, population_size=len(values)), truth)
                )
        return samples
