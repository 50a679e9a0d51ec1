"""The transport-agnostic estimation core shared by every serving surface.

:class:`EstimationCore` is the cache / deadline-fallback pipeline that used
to live inside :class:`EstimationService` -- extracted so the *same* object
(same caches, same degradation contract, same stats) serves requests
regardless of how they arrive:

* in-process -- :class:`repro.serving.service.EstimationService` wraps a
  core behind the :class:`CountEstimator`/:class:`NdvEstimator` interface
  for the optimizer's direct calls;
* over IPC -- each :mod:`repro.fleet` worker process wraps a core behind a
  length-prefixed frame protocol; the fleet is a *composition* of this core
  with process supervision, not a fork of the serving logic.

Request path::

    request -> fingerprint -> cache? -> admission -> model
                   |            hit ^        | full     | deadline/error
                   |                |        v          v
                   +----------------+---- traditional fallback (recorded)

A COUNT miss computes through ``strategy.estimate_count(query)`` -- one
column of the model's inference context, nothing else.  A request without a
deadline has nothing to time out, so after admission it computes on the
thread that brought it (:meth:`WorkerPool.run_inline`); only requests that
carry a deadline cross into the pool's worker threads, where the caller can
abandon the wait.

The facade bumps the estimate cache's generations
(:meth:`EstimationCore.invalidate`) after a refresh installs its rebuilt
estimators and when a fallback gate flips; the stamp is taken *before*
inference starts, so an answer from a superseded model or gate is never
inserted as current.

Shutdown is drain-ordered and bounded (:meth:`EstimationCore.close`): stop
admitting (new requests degrade to the fallback, they are still answered),
wait out in-flight work up to the timeout, then tear down the pool --
abandoning a hung worker thread rather than wedging interpreter exit.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from concurrent.futures import CancelledError as FutureCancelledError
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, replace
from typing import Callable

from repro.errors import EstimationError
from repro.estimators.base import CountEstimator, NdvEstimator
from repro.estimators.strategy import as_strategy
from repro.feedback import FeedbackLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanRecord, Tracer
from repro.serving.config import ServingConfig
from repro.serving.fingerprint import query_fingerprint, request_fingerprint
from repro.serving.stats import ServiceStats, StatsCollector
from repro.serving.workers import WorkerPool
from repro.sql.query import CardQuery
from repro.utils.lru import GenerationLRU

_UNSET = object()
#: the caller-thread path times its compute where it runs, not the wait
_NO_SPAN = nullcontext()


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


class EstimationCore:
    """Cache + deadline-fallback pipeline, transport-free."""

    def __init__(
        self,
        estimator: CountEstimator,
        fallback_count: CountEstimator,
        fallback_ndv: NdvEstimator | None = None,
        config: ServingConfig | None = None,
        invalidations=None,
        registry: MetricsRegistry | None = None,
        feedback: FeedbackLog | None = None,
        clock=None,
    ):
        """``invalidations`` (normally the ByteCard behind ``estimator``)
        gets :meth:`invalidate` subscribed via ``add_invalidation_listener``.

        ``clock`` (a :class:`repro.utils.clock.Clock`) supplies the
        request timestamps and deadline arithmetic; the default system
        clock preserves ``time.perf_counter`` semantics.  Under a simulated
        clock the configured deadline still bounds the *real* wait on the
        worker future -- virtual time does not advance while blocking.
        """
        self.estimator = estimator
        #: the protocol view of the estimator -- every learned answer and the
        #: per-query cache scope come from here, never from getattr probes
        self.strategy = as_strategy(estimator)
        self.fallback_count = fallback_count
        self.fallback_ndv = fallback_ndv
        from repro.utils.clock import SYSTEM_CLOCK

        self.clock = clock if clock is not None else SYSTEM_CLOCK
        #: runtime feedback log; every served COUNT estimate (cache hits
        #: included -- they never reach the optimizer's provenance) is noted
        #: as pending so the executor can pair it with the observed actual
        self.feedback = feedback
        self.config = config or ServingConfig()
        self.registry = registry if registry is not None else MetricsRegistry(enabled=False)
        self.tracer = Tracer(self.registry)
        self.stats_collector = StatsCollector(self.config.latency_window)
        # Surface the always-on per-path latency rings through the export.
        for hist in self.stats_collector.path_histograms.values():
            self.registry.adopt(hist)
        self.cache = (
            GenerationLRU(self.config.cache_entries)
            if self.config.enable_cache
            else None
        )
        self.pool = WorkerPool(
            num_workers=self.config.num_workers,
            queue_capacity=self.config.queue_capacity,
        )
        if invalidations is not None:
            invalidations.add_invalidation_listener(self.invalidate)

    # ------------------------------------------------------------------
    # Model lifecycle integration
    # ------------------------------------------------------------------
    def invalidate(self, tables: frozenset[str] | None) -> None:
        """Invalidate cached estimates touching ``tables`` (all if None)."""
        if self.cache is None:
            return
        if tables is None:
            self.cache.bump_all()
            self.registry.counter(
                "serving_cache_generation_bumps_total", scope="all"
            ).inc()
        elif tables:
            self.cache.bump_tables(tables)
            self.registry.counter(
                "serving_cache_generation_bumps_total", scope="tables"
            ).inc(len(tables))

    # ------------------------------------------------------------------
    # Serving pipeline
    # ------------------------------------------------------------------
    def _deadline_s(self, deadline_ms) -> float | None:
        if deadline_ms is _UNSET:
            deadline_ms = self.config.deadline_ms
        return None if deadline_ms is None else deadline_ms / 1000.0

    def _serve(
        self,
        query: CardQuery,
        task: str,
        compute: Callable[[], float],
        fallback: Callable[[CardQuery], float],
        deadline_ms=_UNSET,
    ) -> ServedEstimate:
        start = self.clock.now()
        self.stats_collector.increment("requests")
        self.registry.counter("serving_requests_total", task=task).inc()
        stages: list[SpanRecord] = []
        scope = self.strategy.cache_scope(query)
        fingerprint = query_fingerprint(query)
        key = request_fingerprint(task, scope, fingerprint)
        if self.cache is not None:
            with self.tracer.span("serve.cache_lookup", sink=stages):
                cached = self.cache.get(key)
            if cached is not None:
                return self._finish(
                    cached, "cache", start, stages=stages, task=task, query=query,
                    fingerprint=fingerprint, strategy=scope,
                )
        stamp = self.cache.stamp(query.tables) if self.cache is not None else None
        deadline = self._deadline_s(deadline_ms)
        compute_span = self.tracer.span("serve.model", sink=stages)
        if deadline is None:
            # Nothing can time out, so the request computes on the thread
            # that brought it -- admitted and counted by the pool like a
            # pooled one, minus the queue and two cross-thread wake-ups.
            def on_caller() -> float:
                with compute_span:
                    return compute()

            future = self.pool.run_inline(on_caller)
            wait_span = _NO_SPAN
        else:
            future = self.pool.try_submit(compute)
            wait_span = compute_span
        if future is None:
            self.stats_collector.record_fallback("rejected")
            self.registry.counter(
                "serving_fallbacks_total", reason="rejected"
            ).inc()
            with self.tracer.span("serve.fallback", sink=stages):
                value = fallback(query)
            return self._finish(
                value, "fallback-rejected", start, stages=stages, task=task,
                query=query, fingerprint=fingerprint, strategy=scope,
            )
        remaining = None
        if deadline is not None:
            remaining = max(0.0, deadline - (self.clock.now() - start))
        try:
            with wait_span:
                value = float(future.result(timeout=remaining))
        except FutureTimeoutError:
            self.stats_collector.record_fallback("timeouts")
            self.registry.counter(
                "serving_fallbacks_total", reason="timeout"
            ).inc()
            self._cache_late_result(key, stamp, future)
            with self.tracer.span("serve.fallback", sink=stages):
                fell_back = fallback(query)
            return self._finish(
                fell_back, "fallback-timeout", start, stages=stages, task=task,
                query=query, fingerprint=fingerprint, strategy=scope,
            )
        except (Exception, FutureCancelledError):
            # CancelledError (a BaseException since 3.8) reaches here when a
            # bounded close cancels the queue under this request: it is
            # answered by the fallback like any other learned-path error.
            self.stats_collector.record_fallback("errors")
            self.registry.counter(
                "serving_fallbacks_total", reason="error"
            ).inc()
            with self.tracer.span("serve.fallback", sink=stages):
                fell_back = fallback(query)
            return self._finish(
                fell_back, "fallback-error", start, stages=stages, task=task,
                query=query, fingerprint=fingerprint, strategy=scope,
            )
        if self.cache is not None and stamp is not None:
            self.cache.put(key, value, stamp)
        return self._finish(
            value, "model", start, stages=stages, task=task,
            query=query, fingerprint=fingerprint, strategy=scope,
        )

    def _cache_late_result(self, key, stamp, future: Future) -> None:
        """A timed-out estimate still warms the cache once it completes --
        unless an invalidation made its stamp stale in the meantime."""
        if self.cache is None or stamp is None:
            return
        cache = self.cache

        def on_done(completed: Future) -> None:
            if not completed.cancelled() and completed.exception() is None:
                cache.put(key, float(completed.result()), stamp)

        future.add_done_callback(on_done)

    def _finish(
        self,
        value: float,
        source: str,
        start: float,
        stages: list[SpanRecord] | None = None,
        task: str | None = None,
        query: CardQuery | None = None,
        fingerprint=None,
        strategy: str = "",
    ) -> ServedEstimate:
        latency = self.clock.now() - start
        estimate = ServedEstimate(
            value=float(value),
            source=source,
            latency_s=latency,
            stages=tuple(stages) if stages else (),
        )
        self.stats_collector.record_latency(latency, path=estimate.path)
        if (
            self.feedback is not None
            and task == "count"
            and fingerprint is not None
            and query is not None
        ):
            self.feedback.note_estimate(
                fingerprint,
                tuple(query.tables),
                estimate.value,
                source=source,
                strategy=strategy,
            )
        return estimate

    # ------------------------------------------------------------------
    # COUNT serving
    # ------------------------------------------------------------------
    def serve_count(self, query: CardQuery, deadline_ms=_UNSET) -> ServedEstimate:
        return self._serve(
            query,
            "count",
            lambda: self.strategy.estimate_count(query),
            self.fallback_count.estimate_count,
            deadline_ms,
        )

    # ------------------------------------------------------------------
    # NDV serving
    # ------------------------------------------------------------------
    def serve_ndv(self, query: CardQuery, deadline_ms=_UNSET) -> ServedEstimate:
        primary = self.estimator
        if not isinstance(primary, NdvEstimator):
            if self.fallback_ndv is None:
                raise EstimationError("service has no NDV estimator")
            primary = self.fallback_ndv
        fallback = (
            self.fallback_ndv.estimate_ndv
            if self.fallback_ndv is not None
            else primary.estimate_ndv
        )
        return self._serve(
            query, "ndv", lambda: primary.estimate_ndv(query), fallback, deadline_ms
        )

    # ------------------------------------------------------------------
    # Planner-facing fast path
    # ------------------------------------------------------------------
    def selectivity_detail(self, query: CardQuery) -> tuple[float, str]:
        """Selectivity plus its provenance: cache | model | fallback-error.

        Served in the calling thread (no pool round-trip: the optimizer
        issues dozens of these per plan and the futures overhead would
        dominate); errors degrade to the traditional estimator.
        """
        self.stats_collector.increment("requests")
        self.registry.counter("serving_requests_total", task="selectivity").inc()
        scope = self.strategy.cache_scope(query)
        fingerprint = query_fingerprint(query)
        key = request_fingerprint("selectivity", scope, fingerprint)

        def noted(value: float, source: str) -> tuple[float, str]:
            if self.feedback is not None:
                self.feedback.note_estimate(
                    fingerprint,
                    tuple(query.tables),
                    value,
                    source=source,
                    unit="fraction",
                    strategy=scope,
                )
            return value, source

        if self.cache is not None:
            cached = self.cache.get(key)
            if cached is not None:
                return noted(cached, "cache")
            stamp = self.cache.stamp(query.tables)
        try:
            value = float(self.strategy.selectivity(query))
        except Exception:
            self.stats_collector.record_fallback("errors")
            self.registry.counter(
                "serving_fallbacks_total", reason="error"
            ).inc()
            return noted(float(self.fallback_count.selectivity(query)), "fallback-error")
        if self.cache is not None:
            self.cache.put(key, value, stamp)
        return noted(value, "model")

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> ServiceStats:
        """Counter snapshot, with cache counters folded in."""
        snapshot = self.stats_collector.snapshot()
        if self.cache is None:
            return snapshot
        return replace(
            snapshot,
            cache_hits=self.cache.hits,
            cache_misses=self.cache.misses,
            cache_invalidations=self.cache.invalidations,
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
        start = time.monotonic()
        self.pool.refuse_new()
        drained = self.pool.drain(timeout)
        remaining = None
        if timeout is not None:
            remaining = max(0.0, timeout - (time.monotonic() - start))
        self.pool.shutdown(
            wait=True, timeout=remaining, cancel_futures=not drained
        )
        return drained

    def __enter__(self) -> "EstimationCore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
