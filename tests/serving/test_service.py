"""EstimationService request-path semantics with controllable estimators,
and a learned ByteCard whose served misses must be its direct estimates."""

import threading
import time

import pytest

from repro.core import ByteCard, ByteCardConfig
from repro.engine import EngineConfig, EngineSession
from repro.engine.optimizer import Optimizer
from repro.errors import EstimationError
from repro.estimators.base import CountEstimator, NdvEstimator
from repro.estimators.traditional.selinger import SelingerEstimator
from repro.serving import EstimationService, ServingConfig
from repro.sql.query import (
    AggKind,
    AggSpec,
    CardQuery,
    JoinCondition,
    PredicateOp,
    TablePredicate,
)


def make_query(value: float, table: str = "t") -> CardQuery:
    return CardQuery(
        tables=(table,),
        predicates=(TablePredicate(table, "c", PredicateOp.EQ, value),),
    )


class Doubler(CountEstimator):
    """Deterministic model: 2x the predicate value; counts its calls."""

    name = "doubler"

    def __init__(self, delay_s: float = 0.0):
        self.delay_s = delay_s
        self.calls = 0

    def estimate_count(self, query: CardQuery) -> float:
        self.calls += 1
        if self.delay_s:
            time.sleep(self.delay_s)
        value = query.predicates[0].value
        if isinstance(value, tuple):
            value = value[0]
        return 2.0 * float(value)

    def selectivity(self, query: CardQuery) -> float:
        return 0.5


class Constant(CountEstimator, NdvEstimator):
    name = "constant"

    def __init__(self, value: float):
        self.value = value

    def estimate_count(self, query: CardQuery) -> float:
        return self.value

    def selectivity(self, query: CardQuery) -> float:
        return 0.25

    def estimate_ndv(self, query: CardQuery) -> float:
        return self.value


class Broken(CountEstimator):
    name = "broken"

    def estimate_count(self, query: CardQuery) -> float:
        raise EstimationError("no model")


FALLBACK = 99.0


def make_service(estimator, **overrides) -> EstimationService:
    defaults = dict(deadline_ms=None, num_workers=2)
    defaults.update(overrides)
    return EstimationService(
        estimator, Constant(FALLBACK), Constant(FALLBACK), ServingConfig(**defaults)
    )


class TestRequestPath:
    def test_model_path_and_cache_path(self):
        model = Doubler()
        with make_service(model) as service:
            first = service.estimate_count_detail(make_query(5.0))
            second = service.estimate_count_detail(make_query(5.0))
        assert first.source == "model" and first.value == 10.0
        assert second.source == "cache" and second.value == 10.0
        assert model.calls == 1
        stats = service.stats()
        assert stats.requests == 2
        assert stats.cache_hits == 1 and stats.cache_misses == 1

    def test_equivalent_spellings_share_cache_entry(self):
        model = Doubler()
        table = "t"
        between = CardQuery(
            tables=(table,),
            predicates=(TablePredicate(table, "c", PredicateOp.BETWEEN, (1.0, 4.0)),),
        )
        bounds = CardQuery(
            tables=(table,),
            predicates=(
                TablePredicate(table, "c", PredicateOp.LE, 4.0),
                TablePredicate(table, "c", PredicateOp.GE, 1.0),
            ),
        )
        with make_service(model) as service:
            service.estimate_count(between)
            detail = service.estimate_count_detail(bounds)
        assert detail.source == "cache"
        assert model.calls == 1

    def test_cache_disabled(self):
        model = Doubler()
        with make_service(model, enable_cache=False) as service:
            service.estimate_count(make_query(5.0))
            detail = service.estimate_count_detail(make_query(5.0))
        assert detail.source == "model"
        assert model.calls == 2

    def test_deadline_falls_back_and_counts(self):
        with make_service(Doubler(delay_s=0.25), deadline_ms=20.0) as service:
            detail = service.estimate_count_detail(make_query(5.0))
            assert detail.source == "fallback-timeout"
            assert detail.value == FALLBACK
            assert detail.degraded
            stats = service.stats()
            assert stats.timeouts == 1 and stats.fallbacks == 1
            # The late model answer still warms the cache.
            time.sleep(0.4)
            warmed = service.estimate_count_detail(make_query(5.0))
            assert warmed.source == "cache" and warmed.value == 10.0

    def test_per_request_deadline_override(self):
        with make_service(Doubler(delay_s=0.05), deadline_ms=1.0) as service:
            patient = service.estimate_count_detail(
                make_query(5.0), deadline_ms=None
            )
        assert patient.source == "model" and patient.value == 10.0

    def test_error_falls_back_and_counts(self):
        with make_service(Broken()) as service:
            detail = service.estimate_count_detail(make_query(5.0))
        assert detail.source == "fallback-error"
        assert detail.value == FALLBACK
        stats = service.stats()
        assert stats.errors == 1 and stats.fallbacks == 1
        # A failed estimate must not poison the cache.
        assert stats.cache_hits == 0

    def test_admission_control_rejects_to_fallback(self):
        release = threading.Event()

        class Gated(CountEstimator):
            name = "gated"

            def estimate_count(self, query: CardQuery) -> float:
                release.wait(5.0)
                return 1.0

        with make_service(
            Gated(), num_workers=1, queue_capacity=0
        ) as service:
            blocker = threading.Thread(
                target=service.estimate_count, args=(make_query(1.0),)
            )
            blocker.start()
            time.sleep(0.05)  # let the blocker occupy the only slot
            detail = service.estimate_count_detail(make_query(2.0))
            release.set()
            blocker.join()
        assert detail.source == "fallback-rejected"
        assert detail.value == FALLBACK
        assert service.stats().rejected == 1

    def test_ndv_path_and_fallback(self):
        ndv_query = CardQuery(
            tables=("t",), agg=AggSpec(AggKind.COUNT_DISTINCT, "t", "c")
        )
        with make_service(Constant(7.0)) as service:
            detail = service.estimate_ndv_detail(ndv_query)
            assert detail.value == 7.0 and detail.source == "model"
        # A COUNT-only estimator serves NDV through the fallback estimator.
        with make_service(Doubler()) as service:
            assert service.estimate_ndv(ndv_query) == FALLBACK

    def test_selectivity_is_cached(self):
        model = Doubler()
        with make_service(model) as service:
            assert service.selectivity(make_query(5.0)) == 0.5
            assert service.selectivity(make_query(5.0)) == 0.5
        stats = service.stats()
        assert stats.cache_hits == 1

    def test_count_and_ndv_fingerprints_do_not_collide(self):
        """COUNT and NDV answers for a look-alike query stay separate."""
        with make_service(Constant(7.0)) as service:
            count = service.estimate_count(CardQuery(tables=("t",)))
            ndv = service.estimate_ndv(
                CardQuery(tables=("t",), agg=AggSpec(AggKind.COUNT_DISTINCT, "t", "c"))
            )
        assert count == 7.0 and ndv == 7.0
        assert service.stats().cache_hits == 0

    def test_latency_quantiles_populate(self):
        with make_service(Doubler()) as service:
            for i in range(20):
                service.estimate_count(make_query(float(i)))
        stats = service.stats()
        assert 0.0 < stats.p50_latency <= stats.p90_latency <= stats.p99_latency


class Grouper(CountEstimator, NdvEstimator):
    """Group NDV that reads its keys in order; raises ``error`` if given."""

    name = "grouper"

    def __init__(self, error: Exception | None = None):
        self.error = error
        self.calls = 0

    def estimate_count(self, query: CardQuery) -> float:
        return 1.0

    def estimate_ndv(self, query: CardQuery) -> float:
        return 1.0

    def group_ndv(self, query: CardQuery) -> float:
        self.calls += 1
        if self.error is not None:
            raise self.error
        return 10.0 * len(query.group_by) + (query.group_by[0][1] == "a")


GROUPED = CardQuery(tables=("t",), group_by=(("t", "a"), ("t", "b")))


def group_service(estimator, fallback_ndv) -> EstimationService:
    return EstimationService(
        estimator, Constant(FALLBACK), fallback_ndv, ServingConfig(deadline_ms=None)
    )


class TestGroupNdv:
    """Group NDV is served like COUNT and NDV: cached, and degraded to the
    fallback's ``group_ndv`` on a learned-path error."""

    def test_group_ndv_is_cached(self):
        model = Grouper()
        with group_service(model, Constant(FALLBACK)) as service:
            assert service.group_ndv(GROUPED) == 21.0
            served = service.group_ndv_detail(GROUPED)
        assert (served.source, served.value, model.calls) == ("cache", 21.0, 1)

    def test_key_order_keys_distinct_answers(self):
        reordered = CardQuery(tables=("t",), group_by=(("t", "b"), ("t", "a")))
        model = Grouper()
        with group_service(model, Constant(FALLBACK)) as service:
            assert service.group_ndv(GROUPED) == 21.0
            assert service.group_ndv(reordered) == 20.0
        assert model.calls == 2

    def test_group_ndv_never_answers_ndv_or_count(self):
        with group_service(Grouper(), Constant(FALLBACK)) as service:
            assert service.group_ndv(GROUPED) == 21.0
            assert service.estimate_count_detail(GROUPED).source == "model"
            assert service.estimate_count(GROUPED) == 1.0

    @pytest.mark.parametrize(
        "error", [RuntimeError("boom"), EstimationError("no model")]
    )
    def test_learned_error_degrades_to_the_fallback(self, error):
        fallback = Grouper()
        with group_service(Grouper(error), fallback) as service:
            served = service.group_ndv_detail(GROUPED)
            assert (served.source, served.value) == ("fallback-error", 21.0)
            assert service.group_ndv_detail(GROUPED).source == "fallback-error"
        assert service.stats().errors == 2 and fallback.calls == 2

    def test_unsupported_fallback_still_raises_estimation_error(self):
        # The sketch has no group-key model: the plan gets None, as before.
        with group_service(Grouper(RuntimeError("boom")), Constant(FALLBACK)) as service:
            with pytest.raises(EstimationError):
                service.group_ndv(GROUPED)

    def test_count_only_estimator_serves_the_fallback(self):
        fallback = Grouper()
        with group_service(Doubler(), fallback) as service:
            assert service.group_ndv(GROUPED) == 21.0
        with EstimationService(Doubler(), Constant(FALLBACK)) as service:
            with pytest.raises(EstimationError):
                service.group_ndv(GROUPED)

    def test_grouped_plan_degrades_to_none(self, imdb):
        query = CardQuery(tables=("title",), group_by=(("title", "kind_id"),))
        model = Grouper(RuntimeError("boom"))
        with group_service(model, Constant(FALLBACK)) as service:
            session = EngineSession(imdb.catalog, service=service)
            plan = session.optimizer.plan(query)
        assert model.calls == 1 and plan.estimated_group_ndv is None


class ThreadRecorder(Doubler):
    """Doubler that records which thread entered it."""

    def __init__(self, delay_s: float = 0.0):
        super().__init__(delay_s)
        self.idents: list[int] = []

    def estimate_count(self, query: CardQuery) -> float:
        self.idents.append(threading.get_ident())
        return super().estimate_count(query)


class TestExecutingThread:
    """A request with nothing to time out is served by the thread that
    brought it; only requests that carry a deadline cross into the pool."""

    @pytest.mark.parametrize("enable_cache", [False, True])
    def test_no_deadline_computes_on_the_caller(self, enable_cache):
        model = ThreadRecorder()
        with make_service(model, enable_cache=enable_cache) as service:
            served = service.estimate_count_detail(make_query(5.0))
            overridden = service.estimate_count_detail(make_query(6.0), deadline_ms=None)
            stats = service.stats()
        assert served.source == overridden.source == "model"
        assert (served.value, overridden.value) == (10.0, 12.0)
        assert model.idents == [threading.get_ident()] * 2
        assert stats.rejected == 0 and stats.timeouts == 0 and stats.fallbacks == 0

    def test_no_deadline_ndv_computes_on_the_caller(self):
        idents: list[int] = []

        class Ndv(Constant):
            def estimate_ndv(self, query: CardQuery) -> float:
                idents.append(threading.get_ident())
                return 7.0

        ndv_query = CardQuery(
            tables=("t",), agg=AggSpec(AggKind.COUNT_DISTINCT, "t", "c")
        )
        with make_service(Ndv(1.0)) as service:
            assert service.estimate_ndv(ndv_query) == 7.0
        assert idents == [threading.get_ident()]

    def test_deadline_computes_on_a_pool_worker(self):
        model = ThreadRecorder()
        with make_service(model, deadline_ms=5_000.0) as service:
            served = service.estimate_count_detail(make_query(5.0))
        assert served.source == "model" and served.value == 10.0
        assert len(model.idents) == 1
        assert model.idents[0] != threading.get_ident()

    def test_inline_request_records_its_compute_stage_once(self):
        with make_service(ThreadRecorder()) as service:
            miss = service.estimate_count_detail(make_query(5.0))
        assert [s.name for s in miss.stages] == ["serve.cache_lookup", "serve.model"]

    def test_inline_error_still_degrades_with_provenance(self):
        with make_service(Broken()) as service:
            detail = service.estimate_count_detail(make_query(5.0))
            assert service.pool.drain(timeout=0)  # the slot was given back
        assert detail.source == "fallback-error"
        assert [s.name for s in detail.stages] == [
            "serve.cache_lookup",
            "serve.model",
            "serve.fallback",
        ]


class TestPathLatencies:
    """Regression: latencies used to land in one shared ring, so sub-ms
    cache hits drowned the model-path distribution.  They are now recorded
    per path (cache/model/fallback) alongside the old aggregate."""

    def test_cache_and_model_paths_recorded_separately(self):
        with make_service(Doubler()) as service:
            service.estimate_count(make_query(5.0))  # model
            for _ in range(3):
                service.estimate_count(make_query(5.0))  # cache hits
        stats = service.stats()
        assert stats.path_latencies["model"].count == 1
        assert stats.path_latencies["cache"].count == 3
        assert "fallback" not in stats.path_latencies
        # Aggregate quantiles (old behaviour) still cover every request.
        assert stats.p99_latency > 0.0

    def test_fallback_latency_lands_on_fallback_path(self):
        with make_service(Broken()) as service:
            detail = service.estimate_count_detail(make_query(5.0))
        assert detail.path == "fallback"
        stats = service.stats()
        assert stats.path_latencies["fallback"].count == 1
        assert "model" not in stats.path_latencies

    def test_request_scoped_stages_trace_the_path(self):
        with make_service(Doubler()) as service:
            miss = service.estimate_count_detail(make_query(5.0))
            hit = service.estimate_count_detail(make_query(5.0))
        assert [s.name for s in miss.stages] == [
            "serve.cache_lookup",
            "serve.model",
        ]
        assert [s.name for s in hit.stages] == ["serve.cache_lookup"]

    def test_registry_exports_per_path_histograms(self):
        from repro.obs import MetricsRegistry, export_text

        registry = MetricsRegistry()
        model = Doubler()
        service = EstimationService(
            model,
            Constant(FALLBACK),
            Constant(FALLBACK),
            ServingConfig(deadline_ms=None, num_workers=2),
            registry=registry,
        )
        with service:
            service.estimate_count(make_query(5.0))
            service.estimate_count(make_query(5.0))
        text = export_text(registry)
        assert 'serving_request_seconds_count{path="model"} 1' in text
        assert 'serving_request_seconds_count{path="cache"} 1' in text
        assert 'serving_requests_total{task="count"} 2' in text


REPUTATION = TablePredicate("users", "Reputation", PredicateOp.GE, 10.0)
SCORE = TablePredicate("posts", "Score", PredicateOp.LE, 40.0)
USERS = CardQuery(tables=("users",), predicates=(REPUTATION,))
JOIN = CardQuery(
    tables=("users", "posts"),
    joins=(JoinCondition("users", "Id", "posts", "OwnerUserId"),),
    predicates=(REPUTATION, SCORE),
)


@pytest.fixture(scope="module")
def learned(stats):
    """A ByteCard serving learned COUNT models only (no RBX training)."""
    bytecard = ByteCard(stats, config=ByteCardConfig(training_sample_rows=4000))
    bytecard.forge_service.train_count_models(stats)
    bytecard.refresh()
    return bytecard


def pass_counts(pass_stats):
    return None if pass_stats is None else (pass_stats.requested, pass_stats.executed)


class TestServedLearnedMiss:
    """A served COUNT miss is ``estimate_count`` on the executing thread:
    same bits, same pass accounting, with or without a deadline."""

    @pytest.mark.parametrize("query", [USERS, JOIN], ids=["single", "join"])
    @pytest.mark.parametrize("deadline_ms", [None, 5.0])
    def test_miss_is_the_direct_estimate(self, learned, deadline_ms, query):
        learned.plan_cache.clear()
        direct = learned.estimate_count(query)
        direct_passes = pass_counts(learned.last_pass_stats)
        learned.plan_cache.clear()
        config = ServingConfig(deadline_ms=deadline_ms, num_workers=1)
        with learned.serve(config) as service:
            served = service.estimate_count_detail(query)
            # Pass accounting is per thread: read it where the miss ran.
            if deadline_ms is None:
                served_passes = pass_counts(learned.last_pass_stats)
            else:
                served_passes = service.pool.try_submit(
                    lambda: pass_counts(learned.last_pass_stats)
                ).result(timeout=10.0)
        assert served.path == "model"
        assert served.value == direct
        assert served_passes == direct_passes
        if query is JOIN:
            assert direct_passes is not None and direct_passes[1] > 0


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"deadline_ms": 0.0},
            {"cache_entries": 0},
            {"cache_entries": -1},
            {"num_workers": 0},
            {"queue_capacity": -1},
            {"latency_window": 0},
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        from repro.errors import SchemaError

        with pytest.raises(SchemaError):
            ServingConfig(**kwargs)


def _plan_signature(plan):
    return (
        dict(plan.readers),
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


def test_dead_model_plans_like_traditional_alone(imdb, imdb_workload):
    """The paper's one fallback: a learned path that fails on every request
    plans exactly like the traditional estimator alone, and every decision
    says so in its provenance."""
    selinger = SelingerEstimator(imdb.catalog)
    traditional = Optimizer(selinger, None, EngineConfig(), catalog=imdb.catalog)
    with EstimationService(
        Broken(), selinger, config=ServingConfig(deadline_ms=None)
    ) as service:
        session = EngineSession(imdb.catalog, service=service)
        for query in imdb_workload.queries[:10]:
            served = session.optimizer.plan(query)
            assert _plan_signature(served) == _plan_signature(
                traditional.plan(query)
            ), query.name
            assert served.decision_provenance, query.name
            for decision, sources in served.decision_provenance.items():
                assert set(sources) == {"fallback-error"}, (query.name, decision)
