"""Strategy-scoped cache keys: A/B and re-routing never cross-pollinate."""

import pytest

from repro.estimators.base import CountEstimator
from repro.estimators.strategy import StrategyRouter, as_strategy
from repro.feedback import FeedbackLog
from repro.serving import EstimationService, ServingConfig
from repro.serving.fingerprint import query_fingerprint, request_fingerprint
from repro.sql.query import CardQuery, PredicateOp, TablePredicate


def make_query(table="t", value=1.0):
    return CardQuery(
        tables=(table,),
        predicates=(TablePredicate(table, "c", PredicateOp.EQ, value),),
    )


class Constant(CountEstimator):
    def __init__(self, name, value):
        self.name = name
        self.value = value
        self.calls = 0

    def estimate_count(self, query):
        self.calls += 1
        return self.value

    def selectivity(self, query):
        return 0.5


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
        assert router.cache_scope(query) == "b>a"

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
    a = Constant("a", 100.0)
    b = Constant("b", 200.0)

    def sel_a(query):
        return 0.1

    def sel_b(query):
        return 0.9

    a.selectivity = sel_a
    b.selectivity = sel_b
    router = StrategyRouter(
        {"a": a, "b": b}, default_chain=("a", "b"), derate_mass=5.0
    )
    with make_service(router) as service:
        query = make_query()
        value, source = service.selectivity_detail(query)
        assert value == pytest.approx(0.1)
        router.observe_qerror("a", ("t",), 1e9)
        value, source = service.selectivity_detail(query)
        assert value == pytest.approx(0.9)
        assert source != "cache"
