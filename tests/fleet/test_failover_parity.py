"""Failover parity: a dead worker's shard degrades to EXACTLY the
traditional estimator -- the same numbers SelingerEstimator produces
alone, which is also what the in-process serving tier answers when its
learned path fails."""

from repro.estimators.traditional.selinger import SelingerEstimator
from repro.fleet import FleetConfig


def test_failover_estimates_equal_traditional_alone(
    fleet_bundle, fleet_card, fleet_serving_config, fleet_workload
):
    selinger = SelingerEstimator(fleet_bundle.catalog)
    queries = fleet_workload.queries[:12]
    with fleet_card.fleet(
        n_workers=2,
        serving_config=fleet_serving_config,
        fleet_config=FleetConfig(
            n_workers=2,
            hedge_timeout_ms=5000.0,
            heartbeat_interval_s=0.1,
            heartbeat_timeout_s=0.5,
            shutdown_timeout_s=10.0,
        ),
    ) as fleet:
        # Kill both workers: every request takes the failover path.
        fleet._client(0).kill()
        fleet._client(1).kill()
        outage = [fleet.estimate_count_detail(q) for q in queries]
        failed_over = [
            (q, e) for q, e in zip(queries, outage) if e.failover
        ]
        assert failed_over, "no request failed over despite dead workers"
        for query, estimate in failed_over:
            # The fleet's degraded answer is bit-identical to the
            # traditional estimator alone.
            assert estimate.value == selinger.estimate_count(query), query.name
