"""Service counters and the :class:`ServiceStats` snapshot.

Every counter is maintained under one lock by :class:`StatsCollector`;
:meth:`StatsCollector.snapshot` produces an immutable :class:`ServiceStats`
that benchmarks and the Model Monitor can introspect without racing the
serving threads.

Latency is recorded **per serving path** (cache / model / fallback) in
bounded :class:`repro.obs.Histogram` rings: a single shared ring would let
sub-microsecond cache hits dominate p99 and hide the model path's tail,
which is the quantity FactorJoin-style deployments actually watch.  The
aggregate p50/p90/p99 fields are kept for compatibility and still cover
every request.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Mapping

from repro.metrics.quantiles import quantile
from repro.obs.metrics import Histogram, HistogramSnapshot

#: the serving paths that get their own latency histogram
LATENCY_PATHS = ("cache", "model", "fallback")


@dataclass(frozen=True)
class ServiceStats:
    """Immutable snapshot of the service's counters."""

    #: total requests answered (every path: cache, model, fallback)
    requests: int = 0
    #: answered straight from the estimate cache
    cache_hits: int = 0
    #: looked up but absent (or stale) in the cache
    cache_misses: int = 0
    #: cache entries dropped lazily due to a generation bump
    cache_invalidations: int = 0
    #: deadline-exceeded requests (answered by the fallback estimator)
    timeouts: int = 0
    #: learned-path errors (answered by the fallback estimator)
    errors: int = 0
    #: admission-control rejections (answered by the fallback estimator)
    rejected: int = 0
    #: total fallback answers (timeouts + errors + rejections)
    fallbacks: int = 0
    #: request latencies (seconds) -- p50/p90/p99 over the recent window,
    #: all paths conflated (kept for compatibility; prefer ``path_latencies``)
    p50_latency: float = 0.0
    p90_latency: float = 0.0
    p99_latency: float = 0.0
    #: per-path latency snapshots: cache / model / fallback
    path_latencies: Mapping[str, HistogramSnapshot] = field(default_factory=dict)

    # Not fields: nothing batches requests together, so both are always 0.
    # Kept only because benchmarks/ledger/layers.py still reads them.
    batches = 0
    batched_requests = 0

    @property
    def cache_hit_rate(self) -> float:
        looked_up = self.cache_hits + self.cache_misses
        return self.cache_hits / looked_up if looked_up else 0.0


class StatsCollector:
    """Thread-safe counter accumulation for one service."""

    def __init__(self, latency_window: int = 4096):
        self._lock = threading.Lock()
        self._counts = {
            "requests": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "cache_invalidations": 0,
            "timeouts": 0,
            "errors": 0,
            "rejected": 0,
            "fallbacks": 0,
        }
        self._latencies: deque[float] = deque(maxlen=latency_window)
        # Always-on per-path rings (they ARE the bugfix); an observability
        # registry may additionally adopt them for export.
        self.path_histograms: dict[str, Histogram] = {
            path: Histogram(
                "serving_request_seconds",
                (("path", path),),
                window=latency_window,
            )
            for path in LATENCY_PATHS
        }

    def increment(self, counter: str, amount: int = 1) -> None:
        with self._lock:
            self._counts[counter] += amount

    def record_fallback(self, reason: str) -> None:
        """Count one degraded answer: ``reason`` is timeouts/errors/rejected."""
        with self._lock:
            self._counts[reason] += 1
            self._counts["fallbacks"] += 1

    def record_latency(self, seconds: float, path: str | None = None) -> None:
        with self._lock:
            self._latencies.append(seconds)
        if path is not None:
            self.path_histograms[path].observe(seconds)

    def snapshot(self) -> ServiceStats:
        with self._lock:
            latencies = list(self._latencies)
            counts = dict(self._counts)
        if latencies:
            p50, p90, p99 = (
                quantile(latencies, 0.50),
                quantile(latencies, 0.90),
                quantile(latencies, 0.99),
            )
        else:
            p50 = p90 = p99 = 0.0
        paths = {
            path: hist.snapshot()
            for path, hist in self.path_histograms.items()
            if hist.count
        }
        return ServiceStats(
            **counts,
            p50_latency=p50,
            p90_latency=p90,
            p99_latency=p99,
            path_latencies=paths,
        )
