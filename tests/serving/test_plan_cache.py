"""Cross-query plan-artifact cache: keying, invalidation, service wiring.

Covers the :class:`PlanDistributionCache` in isolation (canonical
fingerprint keying, generation bumps, LRU bounds), installed into a real
FactorJoin estimator (second identical query runs zero BN passes, bumps
force re-inference), under a concurrent worker pool with mid-flight
generation bumps (results must stay bit-identical to the uncached path),
and wired up by :class:`EstimationService` through the loader-refresh
listener.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.estimators.factorjoin import FactorJoinEstimator
from repro.obs import MetricsRegistry
from repro.serving import (
    EstimationService,
    PlanDistributionCache,
    ServingConfig,
)
from repro.sql.query import (
    CardQuery,
    JoinCondition,
    PredicateOp,
    TablePredicate,
)

P_REP = TablePredicate("users", "Reputation", PredicateOp.GE, 10.0)
P_VIEWS = TablePredicate("users", "Views", PredicateOp.LE, 100.0)


@pytest.fixture(scope="module")
def stats_fj(stats):
    return FactorJoinEstimator.train(stats.catalog, stats.filter_columns)


def join_query(*user_predicates: TablePredicate, name: str = "") -> CardQuery:
    return CardQuery(
        tables=("users", "posts"),
        joins=(JoinCondition("users", "Id", "posts", "OwnerUserId"),),
        predicates=tuple(user_predicates),
        name=name,
    )


class TestCacheKeying:
    def test_reordered_predicates_share_artifacts(self):
        cache = PlanDistributionCache()
        first = cache.artifacts_for("users", [P_REP, P_VIEWS], [])
        second = cache.artifacts_for("users", [P_VIEWS, P_REP], [])
        assert first is second
        assert cache.hits == 1 and cache.misses == 1

    def test_distinct_scopes_distinct_artifacts(self):
        cache = PlanDistributionCache()
        assert cache.artifacts_for("users", [P_REP], []) is not (
            cache.artifacts_for("users", [P_VIEWS], [])
        )
        assert cache.artifacts_for("users", [P_REP], []) is not (
            cache.artifacts_for("posts", [P_REP], [])
        )

    def test_or_groups_participate_in_key(self):
        cache = PlanDistributionCache()
        plain = cache.artifacts_for("users", [P_REP], [])
        with_group = cache.artifacts_for("users", [P_REP], [(P_VIEWS,)])
        assert plain is not with_group
        assert cache.artifacts_for("users", [P_REP], [(P_VIEWS,)]) is with_group


class TestInvalidation:
    def test_bump_tables_mints_fresh_artifacts(self):
        cache = PlanDistributionCache()
        users = cache.artifacts_for("users", [P_REP], [])
        posts = cache.artifacts_for("posts", [], [])
        cache.bump_tables(["users"])
        assert cache.artifacts_for("users", [P_REP], []) is not users
        assert cache.artifacts_for("posts", [], []) is posts
        assert cache.invalidations == 1

    def test_bump_all_invalidates_everything(self):
        cache = PlanDistributionCache()
        users = cache.artifacts_for("users", [P_REP], [])
        posts = cache.artifacts_for("posts", [], [])
        cache.bump_all()
        assert cache.artifacts_for("users", [P_REP], []) is not users
        assert cache.artifacts_for("posts", [], []) is not posts

    def test_lru_eviction_respects_bound(self):
        cache = PlanDistributionCache(max_entries=2)
        first = cache.artifacts_for("users", [P_REP], [])
        cache.artifacts_for("users", [P_VIEWS], [])
        cache.artifacts_for("posts", [], [])  # evicts the oldest entry
        assert len(cache) == 2
        assert cache.artifacts_for("users", [P_REP], []) is not first

    def test_clear_and_len(self):
        cache = PlanDistributionCache()
        cache.artifacts_for("users", [P_REP], [])
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0

    def test_counters_mirrored_to_registry(self):
        registry = MetricsRegistry()
        cache = PlanDistributionCache(registry=registry)
        cache.artifacts_for("users", [P_REP], [])
        cache.artifacts_for("users", [P_REP], [])
        cache.bump_all()
        cache.artifacts_for("users", [P_REP], [])
        assert registry.get("plan_cache_hits_total").value == 1
        assert registry.get("plan_cache_misses_total").value == 2
        assert registry.get("plan_cache_invalidations_total").value == 1


class TestEstimatorIntegration:
    def test_second_identical_query_runs_zero_passes(self, stats_fj):
        query = join_query(P_REP)
        baseline = stats_fj.estimate_count(query)  # no cache installed yet
        cache = PlanDistributionCache()
        stats_fj.install_plan_cache(cache)
        try:
            assert stats_fj.estimate_count(query) == baseline
            assert stats_fj.last_pass_stats.executed > 0
            assert stats_fj.estimate_count(query) == baseline
            assert stats_fj.last_pass_stats.executed == 0
            assert stats_fj.last_pass_stats.saved > 0
        finally:
            stats_fj.install_plan_cache(None)

    def test_bump_forces_reinference(self, stats_fj):
        query = join_query(P_REP)
        baseline = stats_fj.estimate_count(query)  # no cache installed yet
        cache = PlanDistributionCache()
        stats_fj.install_plan_cache(cache)
        try:
            stats_fj.estimate_count(query)
            cache.bump_tables(["users", "posts"])
            assert stats_fj.estimate_count(query) == baseline
            assert stats_fj.last_pass_stats.executed > 0
        finally:
            stats_fj.install_plan_cache(None)

    def test_concurrent_estimates_with_midflight_bumps(self, stats_fj):
        queries = [
            join_query(P_REP, name="q-rep"),
            join_query(P_VIEWS, name="q-views"),
            join_query(P_REP, P_VIEWS, name="q-both"),
            join_query(name="q-none"),
        ]
        # Computed before the cache is installed: every scope swept afresh.
        expected = {q.name: stats_fj.estimate_count(q) for q in queries}
        cache = PlanDistributionCache()
        stats_fj.install_plan_cache(cache)
        stop = threading.Event()

        def bumper():
            while not stop.is_set():
                cache.bump_tables(["users"])
                cache.bump_all()

        def worker(index: int):
            query = queries[index % len(queries)]
            return query.name, stats_fj.estimate_count(query)

        thread = threading.Thread(target=bumper)
        thread.start()
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                outcomes = list(pool.map(worker, range(64)))
        finally:
            stop.set()
            thread.join()
            stats_fj.install_plan_cache(None)
        for name, value in outcomes:
            assert value == expected[name], name


class _StubReport:
    def __init__(self, keys):
        self._keys = keys

    def changed_keys(self):
        return list(self._keys)


class TestServiceWiring:
    def _service(self, stats_fj, **overrides) -> EstimationService:
        config = ServingConfig(
            deadline_ms=None, enable_batching=False, num_workers=2, **overrides
        )
        return EstimationService(stats_fj, stats_fj, config=config)

    def test_service_installs_plan_cache(self, stats_fj):
        service = self._service(stats_fj)
        try:
            assert service.plan_cache is not None
            assert stats_fj.plan_cache is service.plan_cache
        finally:
            service.close()
            stats_fj.install_plan_cache(None)

    def test_plan_cache_disabled_by_config(self, stats_fj):
        service = self._service(stats_fj, enable_plan_cache=False)
        try:
            assert service.plan_cache is None
            assert stats_fj.plan_cache is None
        finally:
            service.close()

    def test_loader_refresh_bumps_plan_cache(self, stats_fj):
        service = self._service(stats_fj)
        try:
            cache = service.plan_cache
            users = cache.artifacts_for("users", [P_REP], [])
            posts = cache.artifacts_for("posts", [], [])
            service._on_loader_refresh(_StubReport([("bn", "users")]))
            assert cache.artifacts_for("users", [P_REP], []) is not users
            assert cache.artifacts_for("posts", [], []) is posts
            # RBX changes are table-agnostic: everything is bumped.
            service._on_loader_refresh(_StubReport([("rbx", "universal")]))
            assert cache.artifacts_for("posts", [], []) is not posts
        finally:
            service.close()
            stats_fj.install_plan_cache(None)

    def test_sharded_bn_key_bumps_base_table(self, stats_fj):
        service = self._service(stats_fj)
        try:
            cache = service.plan_cache
            users = cache.artifacts_for("users", [P_REP], [])
            service._on_loader_refresh(_StubReport([("bn", "users@shard2")]))
            assert cache.artifacts_for("users", [P_REP], []) is not users
        finally:
            service.close()
            stats_fj.install_plan_cache(None)
