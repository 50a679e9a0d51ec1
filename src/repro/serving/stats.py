"""The service's always-on metrics and the :class:`ServiceStats` snapshot.

:class:`StatsCollector` owns the metrics every served request writes, each
exactly once: the request counter of its task, the fallback counter of its
degradation reason, and the latency ring of its serving path.  They are
plain :mod:`repro.obs` metrics, so they work without an observability
registry, and an enabled registry adopts them for export under their usual
names (``serving_requests_total{task}``, ``serving_fallbacks_total{reason}``,
``serving_request_seconds{path}``).  :meth:`StatsCollector.snapshot` reads
those same metrics into an immutable :class:`ServiceStats` that benchmarks
and the Model Monitor can introspect without racing the serving threads.

Latency is recorded **per serving path** (cache / model / fallback) in
bounded :class:`repro.obs.Histogram` rings: a single shared ring would let
sub-microsecond cache hits dominate p99 and hide the model path's tail,
which is the quantity FactorJoin-style deployments actually watch.  The
aggregate p50/p90/p99 fields are kept for compatibility and are taken over
the three paths' windows together.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping

from repro.metrics.quantiles import quantile
from repro.obs.metrics import Counter, Histogram, HistogramSnapshot

#: the estimation tasks a service serves (``serving_requests_total{task}``)
TASKS = ("count", "selectivity", "ndv", "group_ndv")
#: why a request degraded to the fallback (``serving_fallbacks_total{reason}``)
FALLBACK_REASONS = ("timeout", "error", "rejected")
#: the serving paths that get their own latency histogram
LATENCY_PATHS = ("cache", "model", "fallback")


@dataclass(frozen=True)
class ServiceStats:
    """Immutable snapshot of the service's counters."""

    #: total requests answered (every path: cache, model, fallback)
    requests: int = 0
    #: answered straight from the estimate cache
    cache_hits: int = 0
    #: looked up but absent in the cache
    cache_misses: int = 0
    #: deadline-exceeded requests (answered by the fallback estimator)
    timeouts: int = 0
    #: learned-path errors (answered by the fallback estimator)
    errors: int = 0
    #: admission-control rejections (answered by the fallback estimator)
    rejected: int = 0
    #: total fallback answers (timeouts + errors + rejections)
    fallbacks: int = 0
    #: request latencies (seconds) -- p50/p90/p99 over the recent windows,
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
    """The always-on serving metrics of one service."""

    def __init__(self, latency_window: int = 4096):
        #: task -> ``serving_requests_total{task}``
        self.requests: dict[str, Counter] = {
            task: Counter("serving_requests_total", (("task", task),))
            for task in TASKS
        }
        #: reason -> ``serving_fallbacks_total{reason}``
        self.fallbacks: dict[str, Counter] = {
            reason: Counter("serving_fallbacks_total", (("reason", reason),))
            for reason in FALLBACK_REASONS
        }
        #: path -> ``serving_request_seconds{path}``
        self.path_histograms: dict[str, Histogram] = {
            path: Histogram(
                "serving_request_seconds",
                (("path", path),),
                window=latency_window,
            )
            for path in LATENCY_PATHS
        }

    def metrics(self) -> Iterator[Counter | Histogram]:
        """Every metric, for a registry to adopt."""
        yield from self.requests.values()
        yield from self.fallbacks.values()
        yield from self.path_histograms.values()

    def snapshot(self) -> ServiceStats:
        timeouts, errors, rejected = (
            int(self.fallbacks[reason].value) for reason in FALLBACK_REASONS
        )
        latencies = [
            seconds
            for hist in self.path_histograms.values()
            for seconds in hist.values()
        ]
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
            requests=int(sum(counter.value for counter in self.requests.values())),
            timeouts=timeouts,
            errors=errors,
            rejected=rejected,
            fallbacks=timeouts + errors + rejected,
            p50_latency=p50,
            p90_latency=p90,
            p99_latency=p99,
            path_latencies=paths,
        )
