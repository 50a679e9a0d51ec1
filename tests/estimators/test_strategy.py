"""The EstimationStrategy protocol: adapter, chains, and the router."""

import math

import pytest

from repro.engine import EngineConfig
from repro.engine.optimizer import Optimizer
from repro.errors import DetailError, EstimationError
from repro.estimators import (
    EstimateDetail,
    EstimationStrategy,
    LearnedStrategy,
    RoutingRule,
    StrategyChain,
    StrategyRouter,
    TraditionalStrategy,
    UpperBoundStrategy,
    as_strategy,
    classify_query,
)
from repro.estimators.base import CountEstimator
from repro.estimators.traditional.selinger import SelingerEstimator
from repro.feedback import FeedbackLog
from repro.obs.metrics import MetricsRegistry
from repro.sql.query import CardQuery, JoinCondition, PredicateOp, TablePredicate


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
    """Estimator advertising every optional capability."""

    name = "full"

    def estimate_count(self, query):
        return 42.0

    def selectivity(self, query):
        return 0.25

    def selectivity_detail(self, query):
        return (0.25, "cache")

    def estimate_count_detail(self, query):
        return (42.0, "model")

    def shard_selectivity(self, table, shard, query):
        return 0.125


class Failing(CountEstimator):
    """Always raises EstimationError -- the dead-model stand-in."""

    name = "failing"

    def estimate_count(self, query):
        raise EstimationError("model unavailable")

    def selectivity(self, query):
        raise EstimationError("model unavailable")


class DetailRaises(Bare):
    """Has the detail capability, but it errors out at call time."""

    name = "detail-raises"

    def selectivity_detail(self, query):
        raise EstimationError("detail path broke")

    def estimate_count_detail(self, query):
        raise EstimationError("detail path broke")


# ----------------------------------------------------------------------
# Adapter
# ----------------------------------------------------------------------
def test_adapter_capability_flags_bare():
    strategy = as_strategy(Bare())
    assert isinstance(strategy, EstimationStrategy)
    assert strategy.strategy_id == "bare"
    assert not strategy.supports_shard_routing
    assert strategy.cache_scope(single()) == "bare"
    # Defaults synthesize details with "direct" provenance.
    assert strategy.selectivity_detail(single()) == EstimateDetail(0.5, "direct")
    assert strategy.estimate_count_detail(single()) == EstimateDetail(
        10.0, "direct"
    )


def test_adapter_capability_flags_full():
    estimator = Full()
    strategy = as_strategy(estimator)
    assert strategy.supports_shard_routing
    # The optional method is bound straight through (identity holds).
    assert strategy.shard_selectivity == estimator.shard_selectivity
    # Duck-typed (value, source) detail results are normalized.
    assert strategy.selectivity_detail(single()) == EstimateDetail(0.25, "cache")


def test_as_strategy_is_identity_for_strategies():
    strategy = as_strategy(Bare())
    assert as_strategy(strategy) is strategy
    with pytest.raises(ValueError):
        as_strategy(strategy, strategy_id="other")


def test_adapter_wraps_detail_failures_as_detail_error():
    strategy = as_strategy(DetailRaises())
    with pytest.raises(DetailError):
        strategy.selectivity_detail(single())
    with pytest.raises(DetailError):
        strategy.estimate_count_detail(single())
    # A bare estimator's plain failure is NOT a DetailError: there was no
    # detail path to break, so the historical error shape is preserved.
    bare = as_strategy(Failing())
    with pytest.raises(EstimationError) as excinfo:
        bare.selectivity_detail(single())
    assert not isinstance(excinfo.value, DetailError)


# ----------------------------------------------------------------------
# Chains
# ----------------------------------------------------------------------
def test_chain_identity_and_fallthrough(imdb):
    selinger = SelingerEstimator(imdb.catalog)
    chain = StrategyChain([Failing(), selinger])
    assert chain.strategy_id == "failing>traditional-selinger".replace(
        "traditional-selinger", selinger.name
    )
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
    assert detail.source == f"fallback-{selinger.name}"
    assert detail.value == selinger.estimate_count(query)


def test_chain_head_detail_passes_through():
    chain = StrategyChain([Full(), Bare()])
    assert chain.estimate_count_detail(single()).source == "model"


def test_chain_exhausted_raises_estimation_error():
    chain = StrategyChain([Failing(), Failing()])
    with pytest.raises(EstimationError):
        chain.estimate_count(single())


def test_chain_counts_fallthroughs():
    registry = MetricsRegistry(enabled=True)
    chain = StrategyChain([Failing(), Bare()], registry=registry)
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
    assert router.chain_for(join_query()).strategy_id == "full>bare"
    assert router.chain_for(single()).strategy_id == "bare"
    assert router.cache_scope(single()) == "bare"
    assert router.estimate_count(single()) == 7.0


def test_router_risk_tags():
    router = make_router(
        rules=[RoutingRule(chain=("full",), risk_tags=("batch",))],
        default_chain=("bare",),
    )
    assert router.chain_for(single()).strategy_id == "bare"
    assert router.chain_for(single(), risk_tag="batch").strategy_id == "full"
    tagged = make_router(
        rules=[RoutingRule(chain=("full",), risk_tags=("batch",))],
        default_chain=("bare",),
        default_risk_tag="batch",
    )
    assert tagged.chain_for(single()).strategy_id == "full"


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
    assert router.cache_scope(single()) == "bare>full"
    # Accumulate observed error mass against the head on this table.
    router.observe_qerror("bare", ("t",), 1e6)
    assert router.error_mass("bare", "t") == pytest.approx(math.log(1e6))
    # log(1e6) ~ 13.8 > 5.0: the head rotates to the back, deterministically.
    assert router.cache_scope(single()) == "full>bare"
    assert router.cache_scope(single()) == "full>bare"
    # Other tables are unaffected.
    assert router.cache_scope(single(table="u")) == "bare>full"


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
    assert router.cache_scope(single()) == "full>bare"


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
def test_optimizer_detail_error_provenance(imdb):
    registry = MetricsRegistry(enabled=True)
    optimizer = Optimizer(
        DetailRaises(),
        None,
        EngineConfig(),
        registry,
        catalog=imdb.catalog,
    )
    query = CardQuery(
        tables=("title",),
        predicates=(
            TablePredicate("title", "production_year", PredicateOp.LE, 1990.0),
        ),
    )
    plan = optimizer.plan(query)
    # The detail path broke; the optimizer fell back to the raw selectivity
    # and recorded the distinct "detail_error" provenance bucket.
    assert plan.decision_provenance["selectivity:title"]["detail_error"] >= 1
    assert (
        registry.counter("optimizer_detail_errors_total", kind="selectivity").value
        >= 1
    )


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
    """The refactor's core promise: planning through the adapted strategy
    produces bit-identical plans to planning with the bare estimator."""
    direct = Optimizer(
        imdb_factorjoin, None, EngineConfig(), catalog=imdb.catalog
    )
    adapted = Optimizer(
        None,
        None,
        EngineConfig(),
        catalog=imdb.catalog,
        strategy=as_strategy(imdb_factorjoin),
    )
    for query in imdb_workload.queries:
        plan_a = direct.plan(query)
        plan_b = adapted.plan(query)
        assert _plan_signature(plan_a) == _plan_signature(plan_b), query.name


def test_learned_chain_falls_back_to_traditional_identically(imdb, imdb_workload):
    """A learned strategy dying mid-query must yield exactly the plans the
    traditional estimator produces alone."""
    selinger = SelingerEstimator(imdb.catalog)
    chain = StrategyChain([Failing(), selinger])
    chained = Optimizer(None, None, EngineConfig(), catalog=imdb.catalog,
                        strategy=chain)
    traditional = Optimizer(selinger, None, EngineConfig(), catalog=imdb.catalog)
    for query in imdb_workload.queries[:10]:
        plan_a = chained.plan(query)
        plan_b = traditional.plan(query)
        sig_a = _plan_signature(plan_a)
        sig_b = _plan_signature(plan_b)
        # Everything but the strategy identity matches bit for bit.
        assert sig_a[1:] == sig_b[1:], query.name
        assert plan_a.strategy == chain.strategy_id


def test_named_strategies(imdb, imdb_factorjoin):
    learned = LearnedStrategy(imdb_factorjoin)
    traditional = TraditionalStrategy(imdb.catalog)
    upper = UpperBoundStrategy(imdb.catalog)
    assert learned.strategy_id == "learned"
    assert traditional.strategy_id == "traditional"
    assert upper.strategy_id == "upper_bound"
    query = CardQuery(
        tables=("title",),
        predicates=(
            TablePredicate("title", "production_year", PredicateOp.LE, 1990.0),
        ),
    )
    for strategy in (learned, traditional, upper):
        assert strategy.estimate_count(query) > 0
