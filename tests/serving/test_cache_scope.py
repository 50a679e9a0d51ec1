"""One service, one estimator: its ``name`` is the cache scope of every
answer, and the :class:`CountEstimator` protocol defaults are what the
optimizer and the serving core rely on."""

from repro.engine import EngineConfig
from repro.engine.optimizer import Optimizer
from repro.estimators import EstimateDetail
from repro.estimators.base import CountEstimator
from repro.feedback import FeedbackLog
from repro.serving import EstimationService, ServedEstimate, ServingConfig
from repro.serving.fingerprint import query_fingerprint, request_fingerprint
from repro.sql.query import CardQuery, PredicateOp, TablePredicate


def make_query(table="t", value=1.0):
    return CardQuery(
        tables=(table,),
        predicates=(TablePredicate(table, "c", PredicateOp.EQ, value),),
    )


class Constant(CountEstimator):
    def __init__(self, name, value, selectivity=0.5):
        self.name = name
        self.value = value
        self.fraction = selectivity
        self.calls = 0

    def estimate_count(self, query):
        self.calls += 1
        return self.value

    def selectivity(self, query):
        self.calls += 1
        return self.fraction


class Full(CountEstimator):
    """Estimator overriding every optional capability."""

    name = "full"

    def estimate_count(self, query):
        return 42.0

    def selectivity(self, query):
        return 0.25

    def selectivity_detail(self, query):
        return EstimateDetail(0.25, "cache")

    def estimate_count_detail(self, query):
        return EstimateDetail(42.0, "model")


def make_service(estimator, feedback=None):
    return EstimationService(
        estimator=estimator,
        fallback_count=Constant("fallback", -1.0),
        config=ServingConfig(deadline_ms=10_000.0, cache_entries=64),
        feedback=feedback,
    )


# ----------------------------------------------------------------------
# CountEstimator protocol defaults
# ----------------------------------------------------------------------
def test_capability_defaults_bare():
    """A bare estimator answers the whole protocol from its defaults."""
    estimator = Constant("bare", 10.0)
    assert estimator.last_pass_stats is None
    assert estimator.catalog is None
    # Defaults synthesize details with "direct" provenance.
    assert estimator.selectivity_detail(make_query()) == EstimateDetail(
        0.5, "direct"
    )
    assert estimator.estimate_count_detail(make_query()) == EstimateDetail(
        10.0, "direct"
    )


def test_capability_overrides_full():
    """Overrides are the protocol: the optimizer sees them unwrapped."""
    estimator = Full()
    optimizer = Optimizer(estimator, None, EngineConfig())
    plan = optimizer.plan(make_query())
    assert plan.decision_provenance["selectivity:t"] == {"cache": 1}
    assert plan.table_selectivities["t"] == 0.25


# ----------------------------------------------------------------------
# Cache scope
# ----------------------------------------------------------------------
def test_request_fingerprint_separates_tasks_and_scopes():
    fp = query_fingerprint(make_query())
    key = request_fingerprint("count", "bytecard", fp)
    assert key == request_fingerprint("count", "bytecard", fp)
    assert key != request_fingerprint("selectivity", "bytecard", fp)
    assert key != request_fingerprint("count", "serving", fp)


def test_scope_is_the_estimator_name():
    with make_service(Constant("only", 50.0)) as service:
        assert service.core.scope == "only"


def test_same_estimator_still_caches():
    estimator = Constant("only", 50.0)
    with make_service(estimator) as service:
        query = make_query()
        assert service.estimate_count_detail(query).source == "model"
        assert service.estimate_count_detail(query).source == "cache"
        assert estimator.calls == 1


def test_served_estimates_carry_value_into_feedback():
    feedback = FeedbackLog(capacity=16)
    estimator = Constant("only", 50.0)
    with make_service(estimator, feedback=feedback) as service:
        query = make_query()
        service.estimate_count_detail(query)
        pending = feedback.take_estimate(query_fingerprint(query))
        assert pending is not None
        assert (pending.value, pending.source) == (50.0, "model")


def test_selectivity_after_close_degrades_like_count():
    estimator = Constant("only", 50.0, selectivity=0.25)
    service = make_service(estimator)
    service.close()
    query = make_query()
    count = service.estimate_count_detail(query)
    detail = service.selectivity_detail(query)
    assert count.source == "fallback-rejected"
    assert isinstance(detail, ServedEstimate)
    assert (detail.value, detail.source) == (0.5, "fallback-rejected")
    assert estimator.calls == 0
    assert service.stats().rejected == 2
