"""Strategy-scoped cache keys: A/B and re-routing never cross-pollinate."""

import pytest

from repro.estimators.base import CountEstimator
from repro.estimators.strategy import StrategyRouter
from repro.feedback import FeedbackLog
from repro.obs.metrics import MetricsRegistry
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


def make_service(estimator, feedback=None):
    return EstimationService(
        estimator=estimator,
        fallback_count=Constant("fallback", -1.0),
        config=ServingConfig(deadline_ms=10_000.0, cache_entries=64),
        feedback=feedback,
    )


def test_request_fingerprint_separates_strategies():
    query = make_query()
    fp = query_fingerprint(query)
    key_a = request_fingerprint("count", "learned", fp)
    key_b = request_fingerprint("count", "traditional", fp)
    assert key_a != key_b
    assert key_a == request_fingerprint("count", "learned", fp)


def test_rerouted_query_misses_old_strategy_cache():
    """A router whose derating flips the route must NOT serve the previous
    strategy's cached estimate for the same query."""
    a = Constant("a", 100.0)
    b = Constant("b", 200.0)
    router = StrategyRouter(
        {"a": a, "b": b}, default_chain=("a", "b"), derate_mass=5.0
    )
    with make_service(router) as service:
        query = make_query()
        first = service.estimate_count_detail(query)
        assert first.value == 100.0 and first.source == "model"
        # Same route: second request is a cache hit, model untouched.
        second = service.estimate_count_detail(query)
        assert second.value == 100.0 and second.source == "cache"
        assert a.calls == 1

        # Observed error derates strategy "a" on this table: route flips.
        router.observe_qerror("a", ("t",), 1e9)
        assert router.route(query).name == "b>a"

        third = service.estimate_count_detail(query)
        # NOT the stale 100.0 from scope "a>b" -- a fresh model answer
        # under the new scope.
        assert third.value == 200.0
        assert third.source == "model"
        assert b.calls == 1


def test_same_strategy_still_caches():
    estimator = Constant("only", 50.0)
    with make_service(estimator) as service:
        query = make_query()
        assert service.estimate_count_detail(query).source == "model"
        assert service.estimate_count_detail(query).source == "cache"
        assert estimator.calls == 1


def test_served_estimates_carry_strategy_into_feedback():
    feedback = FeedbackLog(capacity=16)
    estimator = Constant("only", 50.0)
    with make_service(estimator, feedback=feedback) as service:
        query = make_query()
        service.estimate_count_detail(query)
        pending = feedback.take_estimate(query_fingerprint(query))
        assert pending is not None
        assert pending.strategy == "only"
        assert pending.value == 50.0


def test_selectivity_cache_is_strategy_scoped():
    a = Constant("a", 100.0, selectivity=0.1)
    b = Constant("b", 200.0, selectivity=0.9)
    router = StrategyRouter(
        {"a": a, "b": b}, default_chain=("a", "b"), derate_mass=5.0
    )
    with make_service(router) as service:
        query = make_query()
        assert service.selectivity_detail(query).value == pytest.approx(0.1)
        router.observe_qerror("a", ("t",), 1e9)
        detail = service.selectivity_detail(query)
        assert detail.value == pytest.approx(0.9)
        assert detail.source != "cache"


def test_request_routes_once():
    """A scorecard update landing mid-request must not file one chain's
    answer under another chain's cache scope: the route that names the
    scope is the route that computes."""
    router = StrategyRouter(
        {"a": Constant("a", 100.0), "b": Constant("b", 200.0)},
        default_chain=("a", "b"),
        derate_mass=5.0,
    )
    route = router.chain_for
    routes = []

    def chain_for(query, risk_tag=None):
        chain = route(query, risk_tag)
        if not routes:
            router.observe_qerror("a", ("t",), 1e9)
        routes.append(chain.name)
        return chain

    router.chain_for = chain_for
    with make_service(router) as service:
        query = make_query()
        first = service.estimate_count_detail(query)
        # "a" heals: its own chain answers 100, and so must the cache.
        router.scorecard.clear()
        healed = service.estimate_count_detail(query)
    assert (first.value, first.source) == (100.0, "model")
    assert (healed.value, healed.source) == (100.0, "cache")
    assert healed.value == router.chain(("a", "b")).estimate_count(query)
    assert routes == ["a>b", "a>b"]


def test_routed_counter_counts_requests():
    registry = MetricsRegistry(enabled=True)
    router = StrategyRouter(
        {"a": Constant("a", 100.0), "b": Constant("b", 200.0)},
        default_chain=("a", "b"),
        registry=registry,
    )
    routed = registry.counter("strategy_routed_total", strategy="a")
    with make_service(router) as service:
        query = make_query()
        service.estimate_count_detail(query)
        assert routed.value == 1
        assert service.estimate_count_detail(query).source == "cache"
        assert routed.value == 2
        service.selectivity_detail(query)
        assert routed.value == 3


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
