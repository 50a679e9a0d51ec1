"""The forge manager: drift-triggered retraining, persisted and hot-swapped.

The closed loop the paper's Figure 2 implies but the in-process components
only approximated:

.. code-block:: text

    IngestionSignal / failing MonitorReport
        -> TrainingScheduler job       (dedup, priority, retry/backoff)
        -> ModelForgeService training  (isolated worker thread)
        -> ModelRegistry publish       (fresh timestamp)
        -> ArtifactStore.put           (atomic, checksummed, versioned)
        -> ByteCard.refresh            (validate + hot-swap: one new model snapshot)
        -> ModelMonitor re-assessment  (fallback lifted only when it passes)

A query thread never blocks on any of this: training runs in the forge
workers, and the swap replaces one reference to an immutable snapshot.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.modelforge import IngestionSignal
from repro.core.monitor import MonitorReport
from repro.errors import ModelError, TrainingError
from repro.forge.config import ForgeConfig
from repro.forge.scheduler import ForgeJob, JobPriority, TrainingScheduler
from repro.forge.store import ArtifactRecord, ArtifactStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.bytecard import ByteCard


@dataclass(frozen=True)
class ForgeJobResult:
    """What one completed forge job produced."""

    artifact: ArtifactRecord
    #: the post-swap re-assessment (None when no learned model serves the
    #: table)
    report: MonitorReport | None = None

    @property
    def healthy(self) -> bool:
        return self.report is None or self.report.passed is not False


class ForgeManager:
    """Asynchronous model lifecycle around one :class:`ByteCard`."""

    def __init__(
        self,
        bytecard: "ByteCard",
        store: ArtifactStore,
        config: ForgeConfig | None = None,
        clock=None,
    ):
        """``clock`` (a :class:`repro.utils.clock.Clock`) is handed to the
        training scheduler, which takes one only with
        ``ForgeConfig(num_workers=0)``: the streaming soak then runs due
        jobs with :meth:`run_ready` on simulated time.  ``None`` keeps the
        system monotonic clock.
        """
        self.bytecard = bytecard
        self.store = store
        self.config = config or ForgeConfig()
        self.metrics = bytecard.obs
        self.scheduler = TrainingScheduler(
            runner=self._run_job,
            num_workers=self.config.num_workers,
            max_attempts=self.config.max_attempts,
            backoff_base_s=self.config.backoff_base_s,
            backoff_max_s=self.config.backoff_max_s,
            metrics=self.metrics,
            clock=clock,
        )
        # Publishing/refreshing mutates shared ByteCard state
        # (forge_service caches, loader contents, estimator assembly):
        # one publish at a time keeps that transition atomic while other
        # workers keep training.
        self._publish_lock = threading.Lock()
        #: tables whose post-retrain re-assessment is in flight -- their
        #: reports must not re-trigger submission (no retrain storms)
        self._muted: set[str] = set()
        self._muted_lock = threading.Lock()
        self._closed = False
        bytecard.monitor.add_assessment_listener(self._on_assessment)
        self.persist_all()

    # ------------------------------------------------------------------
    # Signal intake
    # ------------------------------------------------------------------
    def submit_signal(
        self, signal: IngestionSignal, priority: int = JobPriority.NORMAL
    ) -> ForgeJob:
        """An upstream data-change notification -> one (coalesced) job."""
        # The forge service drops its cached join-bucket grid when a join
        # table changed; the job below retrains the table.
        self.bytecard.forge_service.ingest_signal(signal)
        return self.scheduler.submit(
            "bn",
            signal.table,
            priority=priority,
            details={"source": signal.source, **signal.details},
        )

    def submit_retrain(
        self, kind: str, name: str, priority: int = JobPriority.HIGH
    ) -> ForgeJob:
        """Directly schedule a retrain (the monitor path uses HIGH)."""
        if kind == "bn":
            self.bytecard.forge_service.ingest_signal(
                IngestionSignal(table=name, source="forge-retrain")
            )
        return self.scheduler.submit(kind, name, priority=priority)

    # ------------------------------------------------------------------
    # Monitor listener: failing/drifting assessments become jobs
    # ------------------------------------------------------------------
    def _on_assessment(self, report: MonitorReport, kind: str) -> None:
        # Only a COUNT assessment schedules a retrain: an NDV miss is
        # calibrated per column (ByteCard._calibrate_column), and a
        # universal-RBX retrain would republish the same memoised network.
        if self._closed or kind != "count":
            return
        with self._muted_lock:
            if report.name in self._muted:
                return
        failing = report.passed is False
        if not failing and not self._drifting(report.name):
            return
        reason = "failing" if failing else "drifting"
        if self.metrics.enabled:
            self.metrics.counter(
                "forge_drift_triggers_total", kind=kind, reason=reason
            ).inc()
        try:
            self.submit_retrain(
                "bn", report.name, priority=self._retrain_priority(report)
            )
        except RuntimeError:  # scheduler already shut down
            pass

    def _retrain_priority(self, report: MonitorReport) -> int:
        """Rank a COUNT retrain by *observed* error mass.

        Assessments backed by runtime feedback carry the evidence's summed
        log-Q-Error (:attr:`MonitorReport.error_mass`); any leftover
        feedback still in the attached log adds to it.  Purely synthetic
        assessments (no runtime evidence) keep the legacy fixed HIGH.
        """
        mass = report.error_mass
        feedback = getattr(self.bytecard.monitor, "feedback", None)
        if feedback is not None:
            mass += feedback.error_mass(report.name)
        if not report.feedback_qerrors and mass == 0.0:
            return JobPriority.HIGH
        if mass >= self.config.error_mass_urgent:
            return JobPriority.URGENT
        if mass >= self.config.error_mass_high:
            return JobPriority.HIGH
        return JobPriority.NORMAL

    def _drifting(self, name: str) -> bool:
        history = self.bytecard.monitor.drift.get(name, [])
        if len(history) < 2:
            return False
        previous, latest = history[-2], history[-1]
        return previous > 0 and latest > previous * self.config.drift_ratio

    def run_monitor_cycle(self) -> list[MonitorReport]:
        """One monitor pass; failing/drifting models self-schedule jobs."""
        return self.bytecard.run_monitor(fine_tune=False)

    # ------------------------------------------------------------------
    # Job execution (forge worker threads, or run_ready's caller)
    # ------------------------------------------------------------------
    def run_ready(self) -> list[ForgeJob]:
        """Run the jobs due now on the calling thread (no workers only)."""
        return self.scheduler.run_ready()

    def _run_job(self, job: ForgeJob) -> ForgeJobResult:
        bytecard = self.bytecard
        with self._publish_lock:
            if job.kind != "bn":
                raise TrainingError(f"no trainer for model kind {job.kind!r}")
            infos = bytecard.forge_service.train_count_models(
                bytecard.bundle, tables=[job.name]
            )
            if not infos:
                raise TrainingError(f"no trainable columns for table {job.name!r}")
            record = bytecard.registry.latest(job.kind, job.name)
            assert record is not None  # the trainer just published it
            artifact = self.store.put(
                job.kind, job.name, record.blob, timestamp=record.timestamp
            )
            # Hot swap: loader pass + one new model snapshot, whose tokens
            # retire the cached answers of the replaced model.
            bytecard.refresh()
            report = self._revalidate(job.name)
        return ForgeJobResult(artifact=artifact, report=report)

    def _revalidate(self, table: str) -> MonitorReport | None:
        """Re-assess a freshly swapped model; its report must not loop
        back into the scheduler."""
        with self._muted_lock:
            self._muted.add(table)
        try:
            return self.bytecard.reassess_table(table)
        finally:
            with self._muted_lock:
                self._muted.discard(table)

    # ------------------------------------------------------------------
    # Store bridge
    # ------------------------------------------------------------------
    def persist_all(self) -> list[tuple[str, str]]:
        """Persist the current registry contents into the artifact store.

        Unchanged blobs (same checksum as the stored current version) are
        skipped, so repeated calls do not mint redundant versions.
        """
        return self.store.persist_registry(self.bytecard.registry)

    def rollback(self, kind: str, name: str) -> ArtifactRecord:
        """Roll the stored model back one version and hot-swap it in.

        The rolled-back blob is republished under a fresh registry
        timestamp so the loader (which only considers newer timestamps)
        installs it like any other update.
        """
        with self._publish_lock:
            artifact = self.store.rollback(kind, name)
            blob = self.store.read_blob(artifact)
            self.bytecard.registry.publish(kind, name, blob)
            self.bytecard.refresh()
        if self.metrics.enabled:
            self.metrics.counter("forge_rollbacks_total", kind=kind).inc()
        return artifact

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def drain(self, timeout: float | None = None) -> bool:
        """Wait for every queued/running job to finish."""
        return self.scheduler.drain(timeout)

    def close(self, drain: bool = True, timeout: float | None = None) -> None:
        """Graceful shutdown: stop admissions, finish queued work."""
        self._closed = True
        self.scheduler.shutdown(drain=drain, timeout=timeout)

    def __enter__(self) -> "ForgeManager":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def raise_if_incomplete(store: ArtifactStore) -> None:
    """Guard for warm starts: an empty store cannot serve anything."""
    if not store.keys():
        raise ModelError(
            f"artifact store at {store.directory} holds no complete "
            "artifacts to warm-start from"
        )
