"""The estimation service: ByteCard behind a concurrent serving tier.

:class:`EstimationService` is the reproduction of the paper's query-path
contract: the optimizer asks for an estimate and is **always** answered
within its budget -- by the learned model when it is fast and healthy, and
by the traditional (Selinger/sketch) estimator when the model misses its
deadline, errors out, or the service is saturated.  Every degradation is
recorded, mirroring how the production Inference Engine "falls back to
traditional estimators" rather than stalling the planner.

The pipeline itself (cache -> admission -> model, with the traditional
fallback on every degradation edge) lives in the transport-agnostic
:class:`repro.serving.core.EstimationCore`; this class is the
**in-process transport**: it binds a core to the
:class:`CountEstimator`/:class:`NdvEstimator` interface the optimizer and
the engine session call directly.  The :mod:`repro.fleet` workers bind the
same core to a frame-based IPC loop instead -- one pipeline, two
transports.
"""

from __future__ import annotations

from repro.errors import EstimationError
from repro.estimators.base import CountEstimator, NdvEstimator
from repro.obs.metrics import MetricsRegistry
from repro.serving.config import ServingConfig
from repro.serving.core import _UNSET, EstimationCore, ServedEstimate
from repro.serving.stats import ServiceStats
from repro.sql.query import CardQuery

__all__ = ["EstimationService", "ServedEstimate"]


class EstimationService(CountEstimator, NdvEstimator):
    """Concurrent, deadline-aware serving facade over a learned estimator."""

    name = "serving"

    def __init__(
        self,
        estimator: CountEstimator,
        fallback_count: CountEstimator,
        fallback_ndv: NdvEstimator | None = None,
        config: ServingConfig | None = None,
        invalidations=None,
        registry: MetricsRegistry | None = None,
        feedback=None,
        clock=None,
    ):
        self.core = EstimationCore(
            estimator=estimator,
            fallback_count=fallback_count,
            fallback_ndv=fallback_ndv,
            config=config,
            invalidations=invalidations,
            registry=registry,
            feedback=feedback,
            clock=clock,
        )

    # ------------------------------------------------------------------
    # Core state, exposed for introspection and tests
    # ------------------------------------------------------------------
    @property
    def estimator(self) -> CountEstimator:
        return self.core.estimator

    @property
    def fallback_count(self) -> CountEstimator:
        return self.core.fallback_count

    @property
    def fallback_ndv(self) -> NdvEstimator | None:
        return self.core.fallback_ndv

    @property
    def config(self) -> ServingConfig:
        return self.core.config

    @property
    def registry(self) -> MetricsRegistry:
        return self.core.registry

    @property
    def feedback(self):
        return self.core.feedback

    @property
    def cache(self):
        return self.core.cache

    @property
    def pool(self):
        return self.core.pool

    @property
    def stats_collector(self):
        return self.core.stats_collector

    @property
    def tracer(self):
        return self.core.tracer

    # ------------------------------------------------------------------
    # COUNT serving
    # ------------------------------------------------------------------
    def estimate_count_detail(
        self, query: CardQuery, deadline_ms=_UNSET
    ) -> ServedEstimate:
        return self.core.serve_count(query, deadline_ms)

    def estimate_count(self, query: CardQuery) -> float:
        return self.estimate_count_detail(query).value

    # ------------------------------------------------------------------
    # NDV serving
    # ------------------------------------------------------------------
    def estimate_ndv_detail(
        self, query: CardQuery, deadline_ms=_UNSET
    ) -> ServedEstimate:
        return self.core.serve_ndv(query, deadline_ms)

    def estimate_ndv(self, query: CardQuery) -> float:
        return self.estimate_ndv_detail(query).value

    def group_ndv(self, query: CardQuery) -> float:
        estimator = self.core.estimator
        if not isinstance(estimator, NdvEstimator):
            raise EstimationError("estimator does not support group NDV")
        return float(estimator.group_ndv(query))

    # ------------------------------------------------------------------
    # Planner-facing fast path
    # ------------------------------------------------------------------
    def selectivity(self, query: CardQuery) -> float:
        """Cached selectivity for the optimizer's planning loops."""
        return self.core.selectivity_detail(query)[0]

    def selectivity_detail(self, query: CardQuery) -> tuple[float, str]:
        return self.core.selectivity_detail(query)

    def estimation_overhead(self, query: CardQuery) -> float:
        return self.core.estimator.estimation_overhead(query)

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> ServiceStats:
        """Counter snapshot, with cache counters folded in."""
        return self.core.stats()

    def close(self, timeout: float | None = None) -> bool:
        """Graceful bounded shutdown; see :meth:`EstimationCore.close`."""
        return self.core.close(timeout)

    def __enter__(self) -> "EstimationService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
