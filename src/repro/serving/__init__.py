"""The serving tier: concurrent estimation with caching and deadline-aware
fallback.

Wraps a :class:`~repro.core.bytecard.ByteCard` (or any estimator pair)
behind an in-process :class:`EstimationService` -- the reproduction of the
paper's production query path, where learned estimates are served inside a
warehouse under heavy traffic with strict latency budgets:

* :mod:`repro.serving.service`     -- the request pipeline: deadline
  enforcement, degradation to traditional estimators, per-request detail;
* :mod:`repro.serving.core`        -- the pipeline itself, including the
  estimate cache (a :class:`~repro.utils.lru.GenerationLRU` keyed by the
  query fingerprint and the tokens of the model snapshot that answered);
* :mod:`repro.serving.workers`     -- the bounded worker pool with
  admission control (reject-to-fallback, never unbounded queueing);
* :mod:`repro.serving.fingerprint` -- canonical query fingerprints (order-
  and spelling-insensitive predicate normalization);
* :mod:`repro.serving.stats`       -- per-service counters and latency
  quantiles as an immutable snapshot;
* :mod:`repro.serving.config`      -- the service's tunables.
"""

from repro.serving.config import ServingConfig
from repro.serving.core import EstimationCore
from repro.serving.fingerprint import query_fingerprint, table_scope_fingerprint
from repro.serving.service import EstimationService, ServedEstimate
from repro.serving.stats import ServiceStats, StatsCollector
from repro.serving.workers import WorkerPool

__all__ = [
    "EstimationCore",
    "EstimationService",
    "ServedEstimate",
    "ServingConfig",
    "ServiceStats",
    "StatsCollector",
    "WorkerPool",
    "query_fingerprint",
    "table_scope_fingerprint",
]
