"""The estimation service: ByteCard behind a concurrent serving tier.

:class:`EstimationService` is the reproduction of the paper's query-path
contract: the optimizer asks for an estimate and is **always** answered
within its budget -- by the learned model when it is fast and healthy, and
by the traditional (Selinger/sketch) estimator when the model misses its
deadline, errors out, or the service is saturated.  Every degradation is
recorded, mirroring how the production Inference Engine "falls back to
traditional estimators" rather than stalling the planner.

One pipeline serves all four tasks -- COUNT, selectivity, NDV and group
NDV -- whoever calls: the optimizer and the engine session in process, and
each :mod:`repro.fleet` worker behind its frame loop.  Request path::

    request -> fingerprint -> cache? -> admission -> model
                   |            hit ^        | full     | deadline/error
                   |                |        v          v
                   +----------------+---- traditional fallback (recorded)

One service serves one estimator, so the estimator's ``name`` (read once,
at construction) is the cache scope of every answer.  A request reads the
estimator's ``snapshot()`` once and computes from it both its cache key
(the request fingerprint plus the snapshot's ``cache_key`` tokens; no key,
and so no caching, when the tokens are ``None``) and, on a miss, its
answer: a COUNT miss is ``snapshot.estimate_count(query)``.  A refresh or a
gate flip publishes a new snapshot with new tokens, so an answer from a
superseded model or gate is never asked for again and ages out of the LRU.
A request without a deadline -- every selectivity, and any request when
``ServingConfig.deadline_ms`` is ``None`` -- has nothing to time out, so
after admission it computes on the thread that brought it; only requests
that carry a deadline cross into the pool's worker threads, where the
caller can abandon the wait.

Every request is counted once, in the service's always-on
:class:`~repro.serving.stats.StatsCollector` metrics, which an enabled
registry adopts for export; its stages (``serve.cache_lookup``,
``serve.model``, ``serve.fallback``) are timed into ``span_seconds{span}``
and the request's own :attr:`ServedEstimate.stages`.

Shutdown is drain-ordered and bounded (:meth:`EstimationService.close`):
stop admitting (new requests degrade to the fallback, they are still
answered), wait out in-flight work up to the timeout, then tear down the
pool -- abandoning a hung worker thread rather than wedging interpreter
exit.
"""

from __future__ import annotations

import time
from concurrent.futures import CancelledError as FutureCancelledError
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, replace

from repro.errors import EstimationError
from repro.estimators.base import CountEstimator, NdvEstimator
from repro.feedback import FeedbackLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanRecord
from repro.serving.config import ServingConfig
from repro.serving.fingerprint import query_fingerprint, request_fingerprint
from repro.serving.stats import ServiceStats, StatsCollector
from repro.serving.workers import WorkerPool
from repro.sql.query import CardQuery
from repro.utils.lru import GenerationLRU

__all__ = ["EstimationService", "ServedEstimate"]

_UNSET = object()

#: the estimator method that answers each task, learned and fallback alike
_METHODS = {
    "count": "estimate_count",
    "selectivity": "selectivity",
    "ndv": "estimate_ndv",
    "group_ndv": "group_ndv",
}
#: the tasks whose served answers are noted for runtime feedback, and the
#: unit of each
_FEEDBACK_UNITS = {"count": "rows", "selectivity": "fraction"}
#: the stages a request is timed in
_STAGES = ("serve.cache_lookup", "serve.model", "serve.fallback")


@dataclass(frozen=True)
class ServedEstimate:
    """One answered request: the value plus how it was produced."""

    value: float
    #: "cache" | "model" | "fallback-timeout" | "fallback-error" |
    #: "fallback-rejected"
    source: str
    latency_s: float
    #: per-stage timings of this request (request-scoped trace)
    stages: tuple[SpanRecord, ...] = ()

    @property
    def degraded(self) -> bool:
        return self.source.startswith("fallback")

    @property
    def path(self) -> str:
        """The latency-accounting path: cache | model | fallback."""
        if self.source == "cache":
            return "cache"
        return "fallback" if self.degraded else "model"


class EstimationService(CountEstimator, NdvEstimator):
    """Concurrent, deadline-aware serving pipeline over a learned estimator."""

    name = "serving"

    def __init__(
        self,
        estimator: CountEstimator,
        fallback_count: CountEstimator,
        fallback_ndv: NdvEstimator | None = None,
        config: ServingConfig | None = None,
        registry: MetricsRegistry | None = None,
        feedback: FeedbackLog | None = None,
        clock=None,
    ):
        """``clock`` (a :class:`repro.utils.clock.Clock`) supplies the
        request timestamps and deadline arithmetic; the default system
        clock preserves ``time.perf_counter`` semantics.  Under a simulated
        clock the configured deadline still bounds the *real* wait on the
        worker future -- virtual time does not advance while blocking.
        """
        from repro.utils.clock import SYSTEM_CLOCK

        self.estimator = estimator
        #: cache scope of every answer: the one estimator's identity
        self.scope = estimator.name
        self.fallback_count = fallback_count
        #: the tasks the estimator's snapshot answers on a miss; a COUNT-only
        #: estimator's NDV requests compute on the NDV fallback instead
        self._learned_tasks = {"count", "selectivity"}
        if isinstance(estimator, NdvEstimator):
            self._learned_tasks |= {"ndv", "group_ndv"}
            if fallback_ndv is None:
                fallback_ndv = estimator
        #: task -> the estimator a degraded request is answered by (None:
        #: the service cannot answer the task at all)
        self._fallback_for = {
            "count": fallback_count,
            "selectivity": fallback_count,
            "ndv": fallback_ndv,
            "group_ndv": fallback_ndv,
        }
        self.clock = clock if clock is not None else SYSTEM_CLOCK
        #: runtime feedback log; every served COUNT and selectivity (cache
        #: hits included -- they never reach the optimizer's provenance) is
        #: noted as pending so the executor can pair it with the actual
        self.feedback = feedback
        self.config = config or ServingConfig()
        self.registry = registry if registry is not None else MetricsRegistry(enabled=False)
        self.stats_collector = StatsCollector(self.config.latency_window)
        for metric in self.stats_collector.metrics():
            self.registry.adopt(metric)
        self._requests = self.stats_collector.requests
        self._fallbacks_total = self.stats_collector.fallbacks
        self._path_seconds = self.stats_collector.path_histograms
        self._span_seconds = {
            stage: self.registry.histogram("span_seconds", span=stage)
            for stage in _STAGES
        }
        self.cache = (
            GenerationLRU(self.config.cache_entries)
            if self.config.enable_cache
            else None
        )
        self.pool = WorkerPool(
            num_workers=self.config.num_workers,
            queue_capacity=self.config.queue_capacity,
        )

    # ------------------------------------------------------------------
    # The pipeline
    # ------------------------------------------------------------------
    def _serve(self, query: CardQuery, task: str, deadline_ms=_UNSET) -> ServedEstimate:
        """Answer one ``task`` request: cache, else model, else fallback."""
        fallback = self._fallback_for[task]
        if fallback is None:
            raise EstimationError("service has no NDV estimator")
        start = self.clock.now()
        self._requests[task].inc()
        stages: list[SpanRecord] = []
        fingerprint = query_fingerprint(query)
        snapshot = self.estimator.snapshot()
        request = request_fingerprint(task, self.scope, fingerprint)
        if task == "group_ndv":
            # The answer reads the keys in GROUP BY order (a table's first
            # key picks its RBX network); the fingerprint sorts them.
            request = (request, query.group_by)
        tokens = snapshot.cache_key(task, query)
        # No tokens, no caching: the answer may change without one.
        key = None if tokens is None or self.cache is None else (request, tokens)
        if key is not None:
            began = time.perf_counter()
            cached = self.cache.get(key)
            self._stage(stages, "serve.cache_lookup", began)
            if cached is not None:
                return self._finish(cached, "cache", start, stages, task, query, fingerprint)
        model = snapshot if task in self._learned_tasks else fallback
        compute = getattr(model, _METHODS[task])
        if deadline_ms is _UNSET:
            deadline_ms = self.config.deadline_ms
        reason = None
        if deadline_ms is None:
            # Nothing can time out, so the request computes on the thread
            # that brought it -- admitted and drained by the pool like a
            # pooled one, minus the queue and two cross-thread wake-ups.
            if self.pool.admit():
                began = time.perf_counter()
                try:
                    value = float(compute(query))
                except Exception:
                    reason = "error"
                finally:
                    self.pool.release()
                    self._stage(stages, "serve.model", began)
            else:
                reason = "rejected"
        else:
            future = self.pool.try_submit(compute, query)
            if future is None:
                reason = "rejected"
            else:
                remaining = max(0.0, deadline_ms / 1000.0 - (self.clock.now() - start))
                began = time.perf_counter()
                try:
                    value = float(future.result(timeout=remaining))
                except FutureTimeoutError:
                    reason = "timeout"
                    self._cache_late_result(key, future)
                except (Exception, FutureCancelledError):
                    # CancelledError (a BaseException since 3.8) reaches
                    # here when a bounded close cancels the queue under this
                    # request: it degrades like any learned-path error.
                    reason = "error"
                finally:
                    self._stage(stages, "serve.model", began)
        if reason is not None:
            self._fallbacks_total[reason].inc()
            began = time.perf_counter()
            try:
                value = getattr(fallback, _METHODS[task])(query)
            finally:
                self._stage(stages, "serve.fallback", began)
            return self._finish(
                value, "fallback-" + reason, start, stages, task, query, fingerprint
            )
        if key is not None:
            self.cache.put(key, value)
        return self._finish(value, "model", start, stages, task, query, fingerprint)

    def _stage(self, stages: list[SpanRecord], name: str, began: float) -> None:
        seconds = time.perf_counter() - began
        self._span_seconds[name].observe(seconds)
        stages.append(SpanRecord(name, seconds))

    def _cache_late_result(self, key, future: Future) -> None:
        """A timed-out estimate still warms the cache once it completes,
        under the key of the snapshot that computed it."""
        if key is None:
            return
        cache = self.cache

        def on_done(completed: Future) -> None:
            if not completed.cancelled() and completed.exception() is None:
                cache.put(key, float(completed.result()))

        future.add_done_callback(on_done)

    def _finish(
        self,
        value: float,
        source: str,
        start: float,
        stages: list[SpanRecord],
        task: str,
        query: CardQuery,
        fingerprint,
    ) -> ServedEstimate:
        latency = self.clock.now() - start
        estimate = ServedEstimate(float(value), source, latency, tuple(stages))
        self._path_seconds[estimate.path].observe(latency)
        unit = _FEEDBACK_UNITS.get(task)
        if self.feedback is not None and unit is not None:
            self.feedback.note_estimate(
                fingerprint, query.tables, estimate.value, source=source, unit=unit
            )
        return estimate

    # ------------------------------------------------------------------
    # COUNT and selectivity
    # ------------------------------------------------------------------
    def estimate_count_detail(
        self, query: CardQuery, deadline_ms=_UNSET
    ) -> ServedEstimate:
        return self._serve(query, "count", deadline_ms)

    def estimate_count(self, query: CardQuery) -> float:
        return self.estimate_count_detail(query).value

    def selectivity_detail(self, query: CardQuery) -> ServedEstimate:
        """Selectivity plus its provenance; never carries a deadline (the
        optimizer asks for several per plan), so it computes on the
        caller's thread."""
        return self._serve(query, "selectivity", None)

    def selectivity(self, query: CardQuery) -> float:
        return self._serve(query, "selectivity", None).value

    # ------------------------------------------------------------------
    # NDV and group NDV
    # ------------------------------------------------------------------
    def estimate_ndv_detail(
        self, query: CardQuery, deadline_ms=_UNSET
    ) -> ServedEstimate:
        return self._serve(query, "ndv", deadline_ms)

    def estimate_ndv(self, query: CardQuery) -> float:
        return self.estimate_ndv_detail(query).value

    def group_ndv_detail(self, query: CardQuery) -> ServedEstimate:
        """Group-key NDV for hash-table pre-sizing.  An estimator without a
        group-key model signals "unsupported" with :class:`EstimationError`;
        when the fallback does too, that error reaches the caller."""
        return self._serve(query, "group_ndv")

    def group_ndv(self, query: CardQuery) -> float:
        return self._serve(query, "group_ndv").value

    # ------------------------------------------------------------------
    def estimation_overhead(self, query: CardQuery) -> float:
        return self.estimator.estimation_overhead(query)

    def cache_key(self, task: str, query: CardQuery) -> tuple | None:
        """The tokens of the snapshot a request would compute from now."""
        return self.estimator.snapshot().cache_key(task, query)

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> ServiceStats:
        """Counter snapshot, with cache counters folded in."""
        snapshot = self.stats_collector.snapshot()
        if self.cache is None:
            return snapshot
        return replace(
            snapshot, cache_hits=self.cache.hits, cache_misses=self.cache.misses
        )

    def close(self, timeout: float | None = None) -> bool:
        """Drain-ordered, bounded teardown.

        1. Stop admitting learned-path work -- requests arriving from now
           on are still *answered*, via the fallback-rejected path.
        2. Wait (up to ``timeout``) for in-flight requests to finish.
        3. Tear down the pool, cancelling the queue when the drain failed;
           a hung worker thread is abandoned (daemon), never joined forever.

        Returns ``True`` when everything drained within the budget.
        """
        return self.pool.close(timeout)

    def __enter__(self) -> "EstimationService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
