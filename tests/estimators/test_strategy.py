"""Every CountEstimator is a strategy: protocol defaults, chains, router."""

import math
import sys

import pytest

import repro.estimators.strategy as strategy_module
from repro.core import ByteCard, ByteCardConfig
from repro.engine import EngineConfig, EngineSession
from repro.engine.optimizer import Optimizer
from repro.errors import EstimationError
from repro.estimators import (
    EstimateDetail,
    RoutingRule,
    StrategyChain,
    StrategyRouter,
    UpperBoundEstimator,
    classify_query,
)
from repro.estimators.base import CountEstimator
from repro.estimators.traditional.selinger import SelingerEstimator
from repro.feedback import FeedbackLog
from repro.obs.metrics import MetricsRegistry
from repro.serving import ServingConfig
from repro.sql.query import CardQuery, JoinCondition, PredicateOp, TablePredicate

STRATEGY_FILE = strategy_module.__file__


def single(table="t", value=1.0):
    return CardQuery(
        tables=(table,),
        predicates=(TablePredicate(table, "c", PredicateOp.EQ, value),),
    )


class Bare(CountEstimator):
    """Minimal estimator: no optional capability whatsoever."""

    name = "bare"

    def __init__(self, value=10.0):
        self.value = value

    def estimate_count(self, query):
        return self.value

    def selectivity(self, query):
        return 0.5


class Full(CountEstimator):
    """Estimator overriding every optional capability."""

    name = "full"
    supports_shard_routing = True

    def estimate_count(self, query):
        return 42.0

    def selectivity(self, query):
        return 0.25

    def selectivity_detail(self, query):
        return EstimateDetail(0.25, "cache")

    def estimate_count_detail(self, query):
        return EstimateDetail(42.0, "model")

    def shard_selectivity(self, table, shard, query):
        return 0.125


class Failing(CountEstimator):
    """Always raises EstimationError -- the dead-model stand-in."""

    name = "failing"

    def estimate_count(self, query):
        raise EstimationError("model unavailable")

    def selectivity(self, query):
        raise EstimationError("model unavailable")


# ----------------------------------------------------------------------
# CountEstimator protocol defaults
# ----------------------------------------------------------------------
def test_adapter_capability_flags_bare():
    """A bare estimator answers the whole protocol from its defaults."""
    estimator = Bare()
    assert not estimator.supports_shard_routing
    assert estimator.shard_selectivity("t", 0, single()) is None
    assert estimator.last_pass_stats is None
    assert estimator.catalog is None
    assert estimator.route(single()) is estimator
    # Defaults synthesize details with "direct" provenance.
    assert estimator.selectivity_detail(single()) == EstimateDetail(0.5, "direct")
    assert estimator.estimate_count_detail(single()) == EstimateDetail(
        10.0, "direct"
    )


def test_adapter_capability_flags_full():
    """Overrides are the protocol: the optimizer sees them unwrapped."""
    estimator = Full()
    optimizer = Optimizer(estimator, None, EngineConfig())
    assert optimizer.shard_router == estimator.shard_selectivity
    plan = optimizer.plan(single())
    assert plan.strategy == "full"
    assert plan.decision_provenance["selectivity:t"] == {"cache": 1}
    assert plan.table_selectivities["t"] == 0.25


# ----------------------------------------------------------------------
# Chains
# ----------------------------------------------------------------------
def test_chain_identity_and_fallthrough(imdb):
    selinger = SelingerEstimator(imdb.catalog)
    chain = StrategyChain({"failing": Failing(), "traditional": selinger})
    assert chain.name == "failing>traditional"
    assert chain.route(CardQuery(tables=("title",))) is chain
    query = CardQuery(
        tables=("title",),
        predicates=(
            TablePredicate("title", "production_year", PredicateOp.LE, 1990.0),
        ),
    )
    # Identical numbers to the traditional estimator alone.
    assert chain.estimate_count(query) == selinger.estimate_count(query)
    assert chain.selectivity(query) == selinger.selectivity(query)
    # Fallback answers carry fallback-<id> provenance.
    detail = chain.estimate_count_detail(query)
    assert detail.source == "fallback-traditional"
    assert detail.value == selinger.estimate_count(query)


def test_chain_head_detail_passes_through():
    chain = StrategyChain({"full": Full(), "bare": Bare()})
    assert chain.estimate_count_detail(single()).source == "model"
    assert chain.supports_shard_routing
    assert chain.shard_selectivity("t", 0, single()) == 0.125


def test_chain_exhausted_raises_estimation_error():
    chain = StrategyChain({"a": Failing(), "b": Failing()})
    with pytest.raises(EstimationError):
        chain.estimate_count(single())
    with pytest.raises(EstimationError):
        chain.selectivity(single())


def test_chain_counts_fallthroughs():
    registry = MetricsRegistry(enabled=True)
    chain = StrategyChain({"failing": Failing(), "bare": Bare()}, registry=registry)
    chain.estimate_count(single())
    assert (
        registry.counter("strategy_fallthroughs_total", strategy="failing").value
        == 1
    )


# ----------------------------------------------------------------------
# Router
# ----------------------------------------------------------------------
def join_query():
    return CardQuery(
        tables=("a", "b"),
        joins=(JoinCondition("a", "k", "b", "k"),),
    )


def make_router(**kwargs):
    return StrategyRouter(
        {
            "bare": Bare(value=7.0),
            "full": Full(),
            "failing": Failing(),
        },
        **kwargs,
    )


def test_router_rules_first_match_wins():
    router = make_router(
        rules=[
            RoutingRule(chain=("full", "bare"), requires_joins=True),
            RoutingRule(chain=("bare",)),
        ],
        default_chain=("failing", "bare"),
    )
    assert router.chain_for(join_query()).name == "full>bare"
    assert router.chain_for(single()).name == "bare"
    assert router.route(single()).name == "bare"
    assert router.estimate_count(single()) == 7.0


def test_router_risk_tags():
    router = make_router(
        rules=[RoutingRule(chain=("full",), risk_tags=("batch",))],
        default_chain=("bare",),
    )
    assert router.chain_for(single()).name == "bare"
    assert router.chain_for(single(), risk_tag="batch").name == "full"
    tagged = make_router(
        rules=[RoutingRule(chain=("full",), risk_tags=("batch",))],
        default_chain=("bare",),
        default_risk_tag="batch",
    )
    assert tagged.chain_for(single()).name == "full"


def test_router_classify_features():
    qc = classify_query(join_query())
    assert qc.tables == ("a", "b")
    assert qc.has_joins and qc.num_tables == 2
    qc = classify_query(single(), risk_tag="adhoc")
    assert qc.risk_tag == "adhoc" and qc.ops == frozenset(
        {PredicateOp.EQ.value}
    )


def test_router_derates_on_error_mass():
    router = make_router(
        default_chain=("bare", "full"),
        derate_mass=5.0,
    )
    assert router.route(single()).name == "bare>full"
    # Accumulate observed error mass against the head on this table.
    router.observe_qerror("bare", ("t",), 1e6)
    assert router.error_mass("bare", "t") == pytest.approx(math.log(1e6))
    # log(1e6) ~ 13.8 > 5.0: the head rotates to the back, deterministically.
    assert router.route(single()).name == "full>bare"
    assert router.route(single()).name == "full>bare"
    # Other tables are unaffected.
    assert router.route(single(table="u")).name == "bare>full"


def test_router_refresh_from_feedback():
    feedback = FeedbackLog(capacity=64)
    feedback.record("f1", ("t",), 1000.0, 1.0, strategy="bare>full")
    feedback.record("f2", ("t",), 1.0, 1.0, strategy="full")
    router = make_router(default_chain=("bare", "full"), feedback=feedback,
                         derate_mass=5.0)
    updated = router.refresh_from_feedback()
    assert updated == 2
    # Chain scope "bare>full" credits the head strategy.
    assert router.error_mass("bare", "t") == pytest.approx(math.log(1000.0))
    assert router.error_mass("full", "t") == 0.0
    assert router.route(single()).name == "full>bare"


def test_router_monitor_listener():
    router = make_router(default_chain=("bare", "full"))

    class Report:
        name = "t"
        strategy = "bare"
        qerrors = [100.0, 10.0]

    router.monitor_listener(Report(), "count")
    assert router.error_mass("bare", "t") == pytest.approx(
        math.log(100.0) + math.log(10.0)
    )
    # NDV assessments and unknown strategies are ignored.
    router.monitor_listener(Report(), "ndv")
    Report.strategy = "unknown"
    router.monitor_listener(Report(), "count")
    assert router.error_mass("bare", "t") == pytest.approx(
        math.log(100.0) + math.log(10.0)
    )


def test_router_unknown_chain_id_raises():
    router = make_router()
    with pytest.raises(KeyError):
        router.chain(("nope",))


# ----------------------------------------------------------------------
# Optimizer integration: provenance + bit-identity
# ----------------------------------------------------------------------
def _plan_signature(plan):
    return (
        plan.strategy,
        {t: r for t, r in plan.readers.items()},
        dict(plan.column_orders),
        [
            (j.normalized().left_table, j.normalized().right_table)
            for j in plan.join_order
        ],
        dict(plan.table_selectivities),
        dict(plan.estimated_table_rows),
        {t: tuple(p) for t, p in plan.pruned_partitions.items()},
        plan.join_step_estimates,
    )


def test_learned_strategy_bit_identical_to_bare_estimator(
    imdb, imdb_factorjoin, imdb_workload
):
    """Naming an estimator (a one-link chain) changes only the plans'
    strategy identity: every decision is bit-identical to the bare one."""
    direct = Optimizer(
        imdb_factorjoin, None, EngineConfig(), catalog=imdb.catalog
    )
    named = Optimizer(
        StrategyChain({"learned": imdb_factorjoin}),
        None,
        EngineConfig(),
        catalog=imdb.catalog,
    )
    for query in imdb_workload.queries:
        plan_a = direct.plan(query)
        plan_b = named.plan(query)
        assert _plan_signature(plan_a)[1:] == _plan_signature(plan_b)[1:], (
            query.name
        )
        assert plan_a.decision_provenance == plan_b.decision_provenance
        assert plan_b.strategy == "learned"


def test_learned_chain_falls_back_to_traditional_identically(imdb, imdb_workload):
    """A learned strategy dying mid-query must yield exactly the plans the
    traditional estimator produces alone."""
    selinger = SelingerEstimator(imdb.catalog)
    chain = StrategyChain({"learned": Failing(), "traditional": selinger})
    chained = Optimizer(chain, None, EngineConfig(), catalog=imdb.catalog)
    traditional = Optimizer(selinger, None, EngineConfig(), catalog=imdb.catalog)
    for query in imdb_workload.queries[:10]:
        plan_a = chained.plan(query)
        plan_b = traditional.plan(query)
        sig_a = _plan_signature(plan_a)
        sig_b = _plan_signature(plan_b)
        # Everything but the strategy identity matches bit for bit.
        assert sig_a[1:] == sig_b[1:], query.name
        assert plan_a.strategy == "learned>traditional"


@pytest.fixture(scope="module")
def imdb_bytecard(imdb):
    config = ByteCardConfig(
        training_sample_rows=4000,
        rbx_corpus_size=300,
        rbx_epochs=5,
        join_bucket_count=40,
        max_bins=32,
    )
    return ByteCard.build(imdb, config=config, run_monitor=False)


def test_named_strategies(imdb, imdb_bytecard):
    strategies = imdb_bytecard.strategies()
    assert list(strategies) == ["learned", "traditional", "upper_bound"]
    assert strategies["learned"] is imdb_bytecard
    assert isinstance(strategies["upper_bound"], UpperBoundEstimator)
    router = imdb_bytecard.strategy_router()
    query = CardQuery(
        tables=("title",),
        predicates=(
            TablePredicate("title", "production_year", PredicateOp.LE, 1990.0),
        ),
    )
    assert router.route(query).name == "learned>traditional"
    for strategy in strategies.values():
        assert strategy.estimate_count(query) > 0


class TestNoStrategyLayerOnTheServedPath:
    """Planning through ByteCard -- served or as a suite -- calls the
    estimator directly: no function of the strategy module runs."""

    @staticmethod
    def _strategy_calls(fn) -> list[str]:
        fn()  # warm-up: first calls may import or cache
        calls: list[str] = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_filename == STRATEGY_FILE:
                calls.append(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            fn()
        finally:
            sys.setprofile(None)
        return calls

    @staticmethod
    def _join_query():
        return CardQuery(
            tables=("title", "cast_info"),
            joins=(JoinCondition("title", "id", "cast_info", "movie_id"),),
            predicates=(
                TablePredicate("title", "production_year", PredicateOp.LE, 1990.0),
            ),
        )

    def test_served_plan(self, imdb, imdb_bytecard):
        # No deadline: every request computes on this (profiled) thread.
        with imdb_bytecard.serve(ServingConfig(deadline_ms=None)) as service:
            session = EngineSession(imdb.catalog, service=service)
            query = self._join_query()
            assert self._strategy_calls(lambda: session.optimizer.plan(query)) == []
            plan = session.optimizer.plan(query)
        assert plan.strategy == "serving"

    def test_suite_plan(self, imdb, imdb_bytecard):
        session = EngineSession(imdb.catalog, suite=imdb_bytecard.as_suite())
        query = self._join_query()
        assert self._strategy_calls(lambda: session.optimizer.plan(query)) == []
        assert session.optimizer.shard_router == imdb_bytecard.shard_selectivity
        assert session.optimizer.plan(query).strategy == "bytecard"
