"""The background training scheduler: async jobs the query path never sees.

The paper isolates ModelForge so training "does not interfere with query
processing"; here that isolation is a priority job queue drained by a small
bounded worker pool:

* **dedup/coalescing** -- a second signal for a ``(kind, name)`` that is
  already pending merges into the existing job (details folded in, the more
  urgent priority kept) instead of queueing duplicate training work.  A key
  whose job is already *running* gets a fresh pending job: the data changed
  again mid-training, so one more cycle is genuinely needed;
* **retry with exponential backoff** -- a failing job is requeued with a
  doubling delay until ``max_attempts`` is exhausted, then marked FAILED;
* **cancellation** -- pending jobs can be cancelled; running ones finish
  (training is not preemptible);
* **graceful drain** -- shutdown stops admissions, finishes queued work,
  then joins the workers.

Worker threads call the one job function, :meth:`TrainingScheduler._execute`,
and read real time.  A scheduler with ``num_workers=0`` starts no thread:
its owner calls :meth:`TrainingScheduler.run_ready` to execute the jobs due
on an injected clock -- the stream soak driver runs retrains that way, at
virtual times, between its events.

Instrumented throughout: queue-depth/running gauges, submit/coalesce/
retry/outcome counters, queue-to-done and per-attempt latency histograms,
and a ``forge.job`` span per attempt.
"""

from __future__ import annotations

import enum
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Tracer
from repro.utils.clock import SYSTEM_CLOCK, Clock


class JobPriority:
    """Smaller sorts earlier; gaps leave room for custom levels."""

    URGENT = 0
    HIGH = 10
    NORMAL = 20
    LOW = 30


class JobState(enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"
    CANCELLED = "cancelled"
    #: a retry found a newer pending job for the same key and yielded to it
    SUPERSEDED = "superseded"


@dataclass
class ForgeJob:
    """One unit of background training work."""

    kind: str
    name: str
    priority: int = JobPriority.NORMAL
    details: dict = field(default_factory=dict)
    state: JobState = JobState.PENDING
    attempts: int = 0
    error: str | None = None
    result: object = None
    created_s: float = 0.0
    finished_s: float = 0.0
    _done: threading.Event = field(
        default_factory=threading.Event, repr=False, compare=False
    )

    @property
    def key(self) -> tuple[str, str]:
        return (self.kind, self.name)

    @property
    def done(self) -> bool:
        return self._done.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job reaches a terminal state."""
        return self._done.wait(timeout)


class TrainingScheduler:
    """Priority queue + bounded worker pool around one job runner."""

    def __init__(
        self,
        runner: Callable[[ForgeJob], object],
        num_workers: int = 2,
        max_attempts: int = 3,
        backoff_base_s: float = 0.05,
        backoff_max_s: float = 5.0,
        metrics: MetricsRegistry | None = None,
        clock: Clock | None = None,
    ):
        """``clock`` times jobs and backoff deadlines.  Only a scheduler
        without workers (``num_workers=0``) takes one -- the stream soak
        driver passes its :class:`repro.stream.SimClock`; worker threads
        never wait on virtual time, so a threaded scheduler reads
        ``time.monotonic``.
        """
        if num_workers < 0:
            raise ValueError("num_workers must be >= 0")
        if num_workers and clock is not None:
            raise ValueError("only a scheduler without workers takes a clock")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.runner = runner
        self.max_attempts = max_attempts
        self.backoff_base_s = backoff_base_s
        self.backoff_max_s = backoff_max_s
        self.clock: Clock = clock if clock is not None else SYSTEM_CLOCK
        self.metrics = (
            metrics if metrics is not None else MetricsRegistry(enabled=False)
        )
        self.tracer = Tracer(self.metrics)
        self._cond = threading.Condition()
        #: (priority, ready_at, seq, job) -- stale entries dropped lazily
        self._queue: list[tuple[int, float, int, ForgeJob]] = []
        #: pending jobs by key, the dedup/coalesce index
        self._pending: dict[tuple[str, str], ForgeJob] = {}
        self._running = 0
        self._seq = itertools.count()
        self._accepting = True
        self._stop = False
        self._threads = [
            threading.Thread(
                target=self._worker_loop,
                name=f"repro-forge-{i}",
                daemon=True,
            )
            for i in range(num_workers)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        kind: str,
        name: str,
        priority: int = JobPriority.NORMAL,
        details: dict | None = None,
    ) -> ForgeJob:
        """Enqueue training for ``(kind, name)``; coalesces with a pending
        job for the same key."""
        with self._cond:
            if not self._accepting:
                raise RuntimeError("scheduler is shut down")
            existing = self._pending.get((kind, name))
            if existing is not None:
                if details:
                    existing.details.update(details)
                if priority < existing.priority:
                    # escalate: requeue at the more urgent priority
                    existing.priority = priority
                    self._push_locked(existing, ready_at=self.clock.now())
                self._counter("forge_jobs_coalesced_total", kind=kind)
                return existing
            job = ForgeJob(
                kind=kind,
                name=name,
                priority=priority,
                details=dict(details or {}),
                created_s=self.clock.now(),
            )
            self._pending[job.key] = job
            self._push_locked(job, ready_at=job.created_s)
            self._counter("forge_jobs_submitted_total", kind=kind)
            self._gauges_locked()
            return job

    def _push_locked(self, job: ForgeJob, ready_at: float) -> None:
        self._queue.append((job.priority, ready_at, next(self._seq), job))
        self._cond.notify()

    # ------------------------------------------------------------------
    # Cancellation / drain / shutdown
    # ------------------------------------------------------------------
    def cancel(self, kind: str, name: str) -> bool:
        """Cancel a *pending* job; running jobs are not preempted."""
        with self._cond:
            job = self._pending.pop((kind, name), None)
            if job is None:
                return False
            self._finish_locked(job, JobState.CANCELLED)
            self._counter("forge_jobs_cancelled_total", kind=kind)
            self._gauges_locked()
            return True

    def cancel_all(self) -> int:
        with self._cond:
            keys = list(self._pending)
        return sum(self.cancel(kind, name) for kind, name in keys)

    def drain(self, timeout: float | None = None) -> bool:
        """Block until every admitted job reaches a terminal state.

        Without workers nothing else would run them: the due jobs run here,
        and the call never blocks (False while a backoff is still pending).
        """
        if not self._threads:
            self.run_ready()
            return self.pending_count() == 0
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while self._pending or self._running:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._cond.wait(remaining)
        return True

    def shutdown(
        self, drain: bool = True, timeout: float | None = None
    ) -> bool:
        """Stop admissions; optionally finish queued work; join workers."""
        with self._cond:
            self._accepting = False
        drained = True
        if drain:
            drained = self.drain(timeout)
        else:
            self.cancel_all()
        with self._cond:
            self._stop = True
            self._cond.notify_all()
        for thread in self._threads:
            thread.join(timeout)
        return drained

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def pending_count(self) -> int:
        with self._cond:
            return len(self._pending)

    def running_count(self) -> int:
        with self._cond:
            return self._running

    def next_ready_at(self) -> float | None:
        """When the earliest pending job is due (None: nothing pending)."""
        with self._cond:
            self._drop_stale_locked()
            return min((entry[1] for entry in self._queue), default=None)

    # ------------------------------------------------------------------
    # Job execution
    # ------------------------------------------------------------------
    def run_ready(self) -> list[ForgeJob]:
        """Execute, on the calling thread, every job due at ``clock.now()``.

        Only a scheduler without workers is run this way.  Returns the
        executed jobs in run order; a failed attempt requeues behind its
        backoff, so it runs again only in a later call.
        """
        if self._threads:
            raise RuntimeError("a threaded scheduler runs its own jobs")
        ran = []
        while True:
            with self._cond:
                job, _wait_s = self._next_job_locked()
            if job is None:
                return ran
            self._execute(job)
            ran.append(job)

    def _drop_stale_locked(self) -> None:
        # coalesced, escalated, cancelled or finished jobs leave entries
        self._queue = [
            (priority, ready_at, seq, job)
            for priority, ready_at, seq, job in self._queue
            if job.state is JobState.PENDING
            and self._pending.get(job.key) is job
            and priority == job.priority
        ]

    def _next_job_locked(self) -> tuple[ForgeJob | None, float | None]:
        """The most urgent due job, or how long until the next is due."""
        self._drop_stale_locked()
        now = self.clock.now()
        ready = [entry for entry in self._queue if entry[1] <= now]
        if ready:
            best = min(ready)
            self._queue.remove(best)
            return self._claim_locked(best[3]), None
        if self._queue:
            return None, min(entry[1] for entry in self._queue) - now
        return None, None

    def _claim_locked(self, job: ForgeJob) -> ForgeJob:
        del self._pending[job.key]
        job.state = JobState.RUNNING
        self._running += 1
        self._gauges_locked()
        return job

    def _worker_loop(self) -> None:
        while True:
            with self._cond:
                job = None
                while not self._stop:
                    job, wait_s = self._next_job_locked()
                    if job is not None:
                        break
                    self._cond.wait(wait_s)
                if job is None:  # stopping
                    return
            self._execute(job)

    def _execute(self, job: ForgeJob) -> None:
        job.attempts += 1
        started = time.perf_counter()
        try:
            with self.tracer.span("forge.job", kind=job.kind):
                result = self.runner(job)
        except Exception as exc:  # noqa: BLE001 - any training failure retries
            self._observe("forge_job_run_seconds", time.perf_counter() - started)
            self._on_failure(job, exc)
        else:
            self._observe("forge_job_run_seconds", time.perf_counter() - started)
            with self._cond:
                job.result = result
                self._running -= 1
                self._finish_locked(job, JobState.SUCCEEDED)
                self._counter("forge_jobs_succeeded_total", kind=job.kind)
                self._gauges_locked()
                self._cond.notify_all()

    def _on_failure(self, job: ForgeJob, exc: Exception) -> None:
        with self._cond:
            self._running -= 1
            job.error = f"{type(exc).__name__}: {exc}"
            if job.attempts >= self.max_attempts:
                self._finish_locked(job, JobState.FAILED)
                self._counter("forge_jobs_failed_total", kind=job.kind)
            elif self._pending.get(job.key) is not None:
                # a newer job for this key arrived while we were training;
                # it will retrain anyway -- this retry would be redundant.
                self._finish_locked(job, JobState.SUPERSEDED)
            else:
                backoff = min(
                    self.backoff_max_s,
                    self.backoff_base_s * (2 ** (job.attempts - 1)),
                )
                job.state = JobState.PENDING
                self._pending[job.key] = job
                self._push_locked(job, ready_at=self.clock.now() + backoff)
                self._counter("forge_job_retries_total", kind=job.kind)
            self._gauges_locked()
            self._cond.notify_all()

    def _finish_locked(self, job: ForgeJob, state: JobState) -> None:
        job.state = state
        job.finished_s = self.clock.now()
        self._observe(
            "forge_job_latency_seconds", job.finished_s - job.created_s
        )
        job._done.set()

    # ------------------------------------------------------------------
    # Metrics helpers
    # ------------------------------------------------------------------
    def _counter(self, name: str, **labels) -> None:
        if self.metrics.enabled:
            self.metrics.counter(name, **labels).inc()

    def _observe(self, name: str, value: float) -> None:
        if self.metrics.enabled:
            self.metrics.histogram(name).observe(value)

    def _gauges_locked(self) -> None:
        if self.metrics.enabled:
            self.metrics.gauge("forge_queue_depth").set(len(self._pending))
            self.metrics.gauge("forge_jobs_running").set(self._running)

    # ------------------------------------------------------------------
    def __enter__(self) -> "TrainingScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown(drain=True)
