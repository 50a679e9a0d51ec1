"""The engine session facade: optimizer + executor behind one call.

An :class:`EngineSession` pairs a catalog with an :class:`EstimatorSuite`
(a named COUNT/NDV estimator pair -- "sketch", "sample", or "bytecard") and
runs bound queries end to end, which is exactly the setup of the paper's
Figure 5 comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.config import EngineConfig
from repro.engine.executor import Executor, QueryResult
from repro.engine.optimizer import Optimizer
from repro.estimators.base import CountEstimator, NdvEstimator
from repro.feedback import FeedbackLog
from repro.metrics.latency import LatencyProfile
from repro.sql.query import CardQuery
from repro.storage.catalog import Catalog


@dataclass
class EstimatorSuite:
    """A named pair of estimators the engine consults during planning."""

    name: str
    count_estimator: CountEstimator
    ndv_estimator: NdvEstimator | None = None


class EngineSession:
    """Plan-and-execute facade over one catalog."""

    def __init__(
        self,
        catalog: Catalog,
        suite: EstimatorSuite | None = None,
        config: EngineConfig | None = None,
        service=None,
        registry=None,
        feedback: FeedbackLog | None = None,
    ):
        """Pass exactly one of ``suite`` and ``service``.

        With ``suite``, the optimizer plans against its estimators
        directly; any :class:`repro.estimators.base.CountEstimator` goes
        in as ``EstimatorSuite(name, count_estimator=...)``.

        With ``service`` (a :class:`repro.serving.EstimationService`), the
        optimizer consults the serving tier -- estimates come through its
        cache and deadline-fallback pipeline instead of raw estimator
        calls, and a failed, late or rejected request is answered by the
        traditional estimator.

        ``registry`` (a :class:`repro.obs.MetricsRegistry`) collects the
        optimizer's decision spans and the executor's scan/join/resize
        counters; when omitted, the session inherits the service's registry
        or the estimator's own (``ByteCard.metrics()``), if either exists.

        ``feedback`` is the runtime :class:`repro.feedback.FeedbackLog`
        the executor pairs each scan's and join step's actual with the
        estimate its plan used into.  When ``config.enable_feedback`` is
        set and none is passed, the session inherits the estimator's log
        (``ByteCard.feedback_log``; ``service.estimator``'s when planning
        through a service), else it creates a private one.
        """
        if (suite is None) == (service is None):
            raise ValueError("provide exactly one of suite= or service=")
        if suite is None:
            ndv = service if getattr(service, "estimate_ndv", None) else None
            suite = EstimatorSuite(
                service.name, count_estimator=service, ndv_estimator=ndv
            )
        if registry is None:
            registry = getattr(service, "registry", None)
        if registry is None:
            registry = getattr(suite.count_estimator, "obs", None)
        self.catalog = catalog
        self.suite = suite
        self.service = service
        self.registry = registry
        self.config = config or EngineConfig()
        if feedback is None and self.config.enable_feedback:
            estimator = getattr(service, "estimator", suite.count_estimator)
            feedback = getattr(estimator, "feedback_log", None)
            if feedback is None:
                feedback = FeedbackLog(registry=registry)
        self.feedback = feedback
        self.optimizer = Optimizer(
            suite.count_estimator,
            suite.ndv_estimator,
            self.config,
            registry,
            catalog=catalog,
        )
        self.executor = Executor(catalog, self.config, registry, feedback=feedback)

    def run(self, query: CardQuery) -> QueryResult:
        """Plan and execute one query."""
        plan = self.optimizer.plan(query)
        return self.executor.execute(plan)

    def run_workload(self, queries: list[CardQuery]) -> LatencyProfile:
        """Execute a workload and collect its latency profile."""
        profile = LatencyProfile()
        for query in queries:
            result = self.run(query)
            profile.add(result.latency_record())
        return profile
