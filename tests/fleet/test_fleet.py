"""Fleet behaviour on the happy path: routing, identity, observability."""

import pytest

from repro.fleet import FleetConfig, FleetRouter
from repro.forge.store import ArtifactStore
from repro.obs.metrics import MetricsRegistry

pytestmark = pytest.mark.usefixtures("fleet_card")


@pytest.fixture(scope="module")
def fleet(fleet_card, fleet_serving_config):
    router = fleet_card.fleet(
        n_workers=2,
        serving_config=fleet_serving_config,
        fleet_config=FleetConfig(n_workers=2, hedge_timeout_ms=5000.0),
    )
    yield router
    router.close()


@pytest.fixture(scope="module")
def service(fleet_card, fleet_serving_config):
    svc = fleet_card.serve(config=fleet_serving_config)
    yield svc
    svc.close(timeout=5)


class TestFleetServing:
    def test_workers_warm_start_with_models(self, fleet):
        infos = fleet.worker_infos()
        assert sorted(infos) == [0, 1]
        pids = {info["pid"] for info in infos.values()}
        assert len(pids) == 2  # genuinely separate processes
        assert all(info["models"] >= 1 for info in infos.values())

    def test_count_estimates_bit_identical_to_in_process(
        self, fleet, service, fleet_workload
    ):
        for query in fleet_workload.queries:
            expected = service.estimate_count_detail(query).value
            routed = fleet.estimate_count_detail(query)
            assert routed.value == expected
            assert not routed.failover

    def test_ndv_estimates_bit_identical_to_in_process(
        self, fleet, service, fleet_workload
    ):
        for query in fleet_workload.ndv_queries[:10]:
            expected = service.estimate_ndv_detail(query).value
            routed = fleet.estimate_ndv_detail(query)
            assert routed.value == expected
            assert fleet.estimate_ndv(query) == expected

    def test_repeat_request_hits_the_owners_warm_cache(
        self, fleet, fleet_workload
    ):
        query = fleet_workload.queries[0]
        first = fleet.estimate_count_detail(query)
        second = fleet.estimate_count_detail(query)
        assert first.worker == second.worker == fleet.owner_of(query)
        assert second.source == "cache"

    def test_join_scope_routing_is_table_order_insensitive(
        self, fleet, fleet_workload
    ):
        join_queries = [q for q in fleet_workload.queries if len(q.tables) > 1]
        assert join_queries, "workload should contain join queries"
        for query in join_queries:
            owner = fleet.owner_of(query)
            assert owner == fleet.shard_map.owner_for_tables(
                sorted(query.tables, reverse=True)
            )

    def test_stats_count_requests(self, fleet, fleet_workload):
        before = fleet.stats().requests
        fleet.estimate_count(fleet_workload.queries[0])
        after = fleet.stats()
        assert after.requests == before + 1

    def test_stats_count_without_observability(
        self, fleet_card, fleet_serving_config, fleet_workload, tmp_path
    ):
        ArtifactStore(tmp_path).persist_registry(fleet_card.registry)
        with FleetRouter(
            fleet_card.bundle,
            tmp_path,
            fleet_card._traditional_count,
            fleet_card._traditional_ndv,
            serving_config=fleet_serving_config,
            fleet_config=FleetConfig(n_workers=1),
            registry=MetricsRegistry(enabled=False),
        ) as router:
            for query in fleet_workload.queries[:3]:
                router.estimate_count(query)
            assert router.stats().requests == 3
            assert len(router.registry) == 0

    def test_merged_metrics_cover_router_and_every_worker(self, fleet):
        states = fleet.metrics_states()
        assert {"router", "0", "1"} <= set(states)
        text = fleet.metrics_text()
        assert 'worker="router"' in text
        assert 'worker="0"' in text
        assert 'worker="1"' in text
        assert "fleet_requests_total" in text
        # Worker-side serving counters survive the IPC snapshot + merge.
        assert "serving_requests_total" in text

    def test_worker_side_model_misses_show_in_the_merged_metrics(
        self, fleet, fleet_bundle
    ):
        from repro.workloads import aeolus_online

        def model_counts() -> dict[str, int]:
            histograms = fleet.metrics_json()["histograms"]
            counts = {"0": 0, "1": 0}
            for ident, snapshot in histograms.items():
                if ident.startswith("serving_request_seconds{") and (
                    'path="model"' in ident
                ):
                    for worker in counts:
                        if f'worker="{worker}"' in ident:
                            counts[worker] += snapshot["count"]
            return counts

        before = model_counts()
        expected = {"0": 0, "1": 0}
        for query in aeolus_online(fleet_bundle, num_queries=12, seed=977).queries:
            routed = fleet.estimate_count_detail(query)
            if routed.source == "model":
                expected[str(routed.worker)] += 1
        assert sum(expected.values()) > 0
        after = model_counts()
        for worker, requests in expected.items():
            assert after[worker] - before[worker] == requests

    def test_metrics_json_export(self, fleet):
        doc = fleet.metrics_json()
        fleet_counters = [
            key for key in doc["counters"] if key.startswith("fleet_requests")
        ]
        assert fleet_counters
