"""Cross-query plan-artifact cache: keying, bounds, estimator use, wiring.

Covers the plan cache (a :class:`GenerationLRU` behind
:class:`CachedArtifactSource`) in isolation -- canonical fingerprint plus
model-token keying, LRU bounds, mirrored counters -- then installed into a
real FactorJoin estimator (a second identical query runs zero BN passes, a
replaced model forces re-inference), under a concurrent worker pool with
mid-flight model swaps (results must stay bit-identical to the uncached
path), and the shard-key mapping the serving estimate cache is bumped by.
"""

import dataclasses
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.loader import RefreshReport
from repro.estimators.factorjoin import FactorJoinEstimator
from repro.estimators.factorjoin.plans import CachedArtifactSource, new_plan_cache
from repro.obs import MetricsRegistry
from repro.serving import EstimationService, ServingConfig
from repro.sql.query import (
    CardQuery,
    JoinCondition,
    PredicateOp,
    TablePredicate,
)
from repro.utils.lru import GenerationLRU

P_REP = TablePredicate("users", "Reputation", PredicateOp.GE, 10.0)
P_VIEWS = TablePredicate("users", "Views", PredicateOp.LE, 100.0)


@pytest.fixture(scope="module")
def stats_fj(stats):
    return FactorJoinEstimator.train(stats.catalog, stats.filter_columns)


@pytest.fixture(scope="module")
def users(stats_fj):
    return stats_fj.model_for("users")


@pytest.fixture(scope="module")
def posts(stats_fj):
    return stats_fj.model_for("posts")


def replaced(models):
    """The same BNs as freshly loaded models: new contexts, new tokens."""
    return {
        name: dataclasses.replace(model, context=None)
        for name, model in models.items()
    }


def cached_estimator(stats_fj, cache, models=None):
    return FactorJoinEstimator(
        stats_fj.catalog,
        models if models is not None else stats_fj.models,
        stats_fj.bucketizer,
        plan_cache=cache,
    )


def join_query(*user_predicates: TablePredicate, name: str = "") -> CardQuery:
    return CardQuery(
        tables=("users", "posts"),
        joins=(JoinCondition("users", "Id", "posts", "OwnerUserId"),),
        predicates=tuple(user_predicates),
        name=name,
    )


class TestCacheKeying:
    def test_reordered_predicates_share_artifacts(self, users):
        source = CachedArtifactSource(new_plan_cache())
        first = source.artifacts_for(users, [P_REP, P_VIEWS], [])
        second = source.artifacts_for(users, [P_VIEWS, P_REP], [])
        assert first is second
        assert source.cache.hits == 1 and source.cache.misses == 1

    def test_distinct_scopes_distinct_artifacts(self, users, posts):
        source = CachedArtifactSource(new_plan_cache())
        assert source.artifacts_for(users, [P_REP], []) is not (
            source.artifacts_for(users, [P_VIEWS], [])
        )
        assert source.artifacts_for(users, [P_REP], []) is not (
            source.artifacts_for(posts, [P_REP], [])
        )

    def test_or_groups_participate_in_key(self, users):
        source = CachedArtifactSource(new_plan_cache())
        plain = source.artifacts_for(users, [P_REP], [])
        with_group = source.artifacts_for(users, [P_REP], [(P_VIEWS,)])
        assert plain is not with_group
        assert source.artifacts_for(users, [P_REP], [(P_VIEWS,)]) is with_group


class TestInvalidation:
    def test_replaced_model_never_matches_old_scopes(self, users, posts):
        source = CachedArtifactSource(new_plan_cache())
        old_users = source.artifacts_for(users, [P_REP], [])
        old_posts = source.artifacts_for(posts, [], [])
        new_users = replaced({"users": users})["users"]
        assert source.artifacts_for(new_users, [P_REP], []) is not old_users
        assert source.artifacts_for(posts, [], []) is old_posts
        # Keyed by model: nothing to bump, so nothing is ever invalidated.
        assert source.cache.invalidations == 0

    def test_lru_eviction_respects_bound(self, users, posts):
        source = CachedArtifactSource(GenerationLRU(max_entries=2))
        first = source.artifacts_for(users, [P_REP], [])
        source.artifacts_for(users, [P_VIEWS], [])
        source.artifacts_for(posts, [], [])  # evicts the oldest entry
        assert len(source.cache) == 2
        assert source.artifacts_for(users, [P_REP], []) is not first

    def test_clear_and_len(self, users):
        source = CachedArtifactSource(new_plan_cache())
        source.artifacts_for(users, [P_REP], [])
        assert len(source.cache) == 1
        source.cache.clear()
        assert len(source.cache) == 0

    def test_counters_mirrored_to_registry(self, users):
        registry = MetricsRegistry()
        source = CachedArtifactSource(new_plan_cache(registry))
        source.artifacts_for(users, [P_REP], [])
        source.artifacts_for(users, [P_REP], [])
        source.artifacts_for(users, [P_VIEWS], [])
        assert registry.get("plan_cache_hits_total").value == 1
        assert registry.get("plan_cache_misses_total").value == 2
        # A model-keyed cache never invalidates: the series does not exist.
        assert registry.get("plan_cache_invalidations_total") is None


class TestEstimatorIntegration:
    def test_second_identical_query_runs_zero_passes(self, stats_fj):
        query = join_query(P_REP)
        baseline = stats_fj.estimate_count(query)  # no plan cache
        fj = cached_estimator(stats_fj, new_plan_cache())
        assert fj.estimate_count(query) == baseline
        assert fj.last_pass_stats.executed > 0
        assert fj.estimate_count(query) == baseline
        assert fj.last_pass_stats.executed == 0
        assert fj.last_pass_stats.saved > 0

    def test_new_model_forces_reinference(self, stats_fj):
        query = join_query(P_REP)
        baseline = stats_fj.estimate_count(query)  # no plan cache
        cache = new_plan_cache()
        cached_estimator(stats_fj, cache).estimate_count(query)
        # A refresh rebuilds the estimator over reloaded models but hands it
        # the same cache: the old scopes must not be served to the new BNs.
        rebuilt = cached_estimator(stats_fj, cache, replaced(stats_fj.models))
        assert rebuilt.estimate_count(query) == baseline
        assert rebuilt.last_pass_stats.executed > 0

    def test_concurrent_estimates_across_model_swaps(self, stats_fj):
        queries = [
            join_query(P_REP, name="q-rep"),
            join_query(P_VIEWS, name="q-views"),
            join_query(P_REP, P_VIEWS, name="q-both"),
            join_query(name="q-none"),
        ]
        # Computed without a plan cache: every scope swept afresh.
        expected = {q.name: stats_fj.estimate_count(q) for q in queries}
        cache = new_plan_cache()
        current = {"fj": cached_estimator(stats_fj, cache)}
        stop = threading.Event()

        def swapper():
            while not stop.is_set():
                current["fj"] = cached_estimator(
                    stats_fj, cache, replaced(stats_fj.models)
                )

        def worker(index: int):
            query = queries[index % len(queries)]
            return query.name, current["fj"].estimate_count(query)

        thread = threading.Thread(target=swapper)
        thread.start()
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                outcomes = list(pool.map(worker, range(64)))
        finally:
            stop.set()
            thread.join()
        for name, value in outcomes:
            assert value == expected[name], name


class TestServiceWiring:
    def test_sharded_bn_key_bumps_base_table(self, stats_fj):
        report = RefreshReport(loaded=[("bn", "users@shard2")])
        assert report.changed_tables() == {"users"}
        assert RefreshReport(loaded=[("rbx", "universal")]).changed_tables() is None
        config = ServingConfig(deadline_ms=None, num_workers=2)
        with EstimationService(stats_fj, stats_fj, config=config) as service:
            query = CardQuery(tables=("users",), predicates=(P_REP,))
            service.estimate_count(query)
            assert service.estimate_count_detail(query).source == "cache"
            service.core.invalidate(report.changed_tables())
            assert service.estimate_count_detail(query).source == "model"
