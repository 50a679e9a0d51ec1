"""Fleet fault paths: kills, stalls, worker errors -- no request lost.

Stall injection uses SIGSTOP (process alive, totally silent) and kill
injection uses SIGKILL (EOF on the frame connection); both are observable
deterministically, unlike timing races around in-flight frames.
"""

import os
import signal
import time

import pytest

from repro.errors import EstimationError, WorkerDied
from repro.fleet import FleetConfig
from repro.sql.query import AggKind

RESTART_WAIT_S = 60.0


def wait_for(predicate, timeout_s, interval_s=0.05) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return False


def make_fleet(card, serving_config, **overrides):
    defaults = dict(
        n_workers=2,
        hedge_timeout_ms=5000.0,
        heartbeat_interval_s=0.1,
        heartbeat_timeout_s=0.5,
        shutdown_timeout_s=10.0,
    )
    defaults.update(overrides)
    return card.fleet(
        n_workers=2,
        serving_config=serving_config,
        fleet_config=FleetConfig(**defaults),
    )


class TestWorkerDeath:
    def test_kill_fails_over_restarts_and_rewarms(
        self, fleet_card, fleet_serving_config, fleet_workload
    ):
        queries = fleet_workload.queries[:12]
        with make_fleet(fleet_card, fleet_serving_config) as fleet:
            baseline = [fleet.estimate_count(q) for q in queries]
            victim = fleet._client(0)
            old_pid = victim.ready_info["pid"]
            victim.kill()
            # Every request during the outage is still answered: shard-0
            # traffic degrades to the router-local traditional estimator.
            outage = [fleet.estimate_count_detail(q) for q in queries]
            assert all(e.value >= 0 for e in outage)
            assert any(e.failover for e in outage)  # worker 0 owned something
            # The supervisor restarts the worker and re-warms it from the
            # artifact store...
            assert wait_for(
                lambda: (client := fleet._client(0)) is not None
                and client.alive
                and client.ready_info is not None
                and client.ready_info["pid"] != old_pid,
                RESTART_WAIT_S,
            ), "worker 0 was not restarted"
            assert fleet.stats().restarts >= 1
            # ... after which estimates are bit-identical to pre-kill.
            recovered = [fleet.estimate_count_detail(q) for q in queries]
            assert [e.value for e in recovered] == baseline
            assert not any(e.failover for e in recovered)

    def test_pending_request_on_killed_worker_raises_worker_died(
        self, fleet_card, fleet_serving_config, fleet_workload
    ):
        with make_fleet(
            fleet_card, fleet_serving_config, heartbeat_interval_s=30.0
        ) as fleet:
            client = fleet._client(1)
            pid = client.ready_info["pid"]
            # Freeze the worker so the request is provably in flight, then
            # kill it: the client's EOF handler must fail the pending
            # future immediately (edge-triggered, no timeout wait).
            os.kill(pid, signal.SIGSTOP)
            try:
                _req_id, future = client.submit_estimate(
                    "count", fleet_workload.queries[0]
                )
                assert not future.done()
            finally:
                os.kill(pid, signal.SIGKILL)
            with pytest.raises(WorkerDied):
                future.result(timeout=10.0)
            # And submitting to a dead client refuses up front.
            assert wait_for(lambda: not client.alive, 10.0)
            with pytest.raises(WorkerDied):
                client.submit_estimate("count", fleet_workload.queries[0])

    def test_restarts_beyond_budget_leave_shard_on_fallback(
        self, fleet_card, fleet_serving_config, fleet_workload
    ):
        with make_fleet(
            fleet_card, fleet_serving_config, max_restarts=0
        ) as fleet:
            fleet._client(0).kill()
            time.sleep(0.5)  # a few supervisor sweeps
            client = fleet._client(0)
            assert client is not None and not client.alive
            owned = [
                q for q in fleet_workload.queries if fleet.owner_of(q) == 0
            ]
            assert owned, "worker 0 should own part of the workload"
            for query in owned:
                estimate = fleet.estimate_count_detail(query)
                assert estimate.failover
                assert estimate.source == "fallback-failover"
            assert fleet.stats().restarts == 0


class TestStalledWorker:
    def test_stalled_worker_is_hedged_to_local_fallback(
        self, fleet_card, fleet_serving_config, fleet_workload
    ):
        # Supervisor effectively disabled: this test isolates the hedge.
        with make_fleet(
            fleet_card,
            fleet_serving_config,
            hedge_timeout_ms=150.0,
            heartbeat_interval_s=60.0,
        ) as fleet:
            query = fleet_workload.queries[0]
            owner = fleet.owner_of(query)
            pid = fleet._client(owner).ready_info["pid"]
            expected = fleet.fallback_count.estimate_count(query)
            os.kill(pid, signal.SIGSTOP)
            try:
                estimate = fleet.estimate_count_detail(query)
            finally:
                os.kill(pid, signal.SIGCONT)
            assert estimate.hedged
            assert estimate.source == "fallback-hedge"
            assert estimate.value == expected
            assert fleet.stats().hedges >= 1

    def test_brief_stall_hedges_without_restarting_the_worker(
        self, fleet_card, fleet_serving_config, fleet_workload
    ):
        # A pause far below the heartbeat's wedge budget: every request to
        # the paused worker hedges, and none of them costs it its process.
        queries = fleet_workload.queries[:24]
        with make_fleet(
            fleet_card,
            fleet_serving_config,
            hedge_timeout_ms=100.0,
            heartbeat_interval_s=FleetConfig.heartbeat_interval_s,
            heartbeat_timeout_s=FleetConfig.heartbeat_timeout_s,
        ) as fleet:
            baseline = [fleet.estimate_count(q) for q in queries]
            owner = fleet.owner_of(queries[0])
            owned = [q for q in queries if fleet.owner_of(q) == owner]
            pid = fleet._client(owner).ready_info["pid"]
            os.kill(pid, signal.SIGSTOP)
            try:
                stalled = [
                    fleet.estimate_count_detail(owned[i % len(owned)])
                    for i in range(4)
                ]
            finally:
                try:
                    os.kill(pid, signal.SIGCONT)
                except ProcessLookupError:
                    pass
            assert [e.source for e in stalled] == ["fallback-hedge"] * 4
            client = fleet._client(owner)
            assert client.alive and client.ready_info["pid"] == pid
            assert fleet.stats().restarts == 0
            # The resumed worker first works off the replies the router
            # hedged away; compare values once it answers in time again.
            assert wait_for(
                lambda: fleet.estimate_count_detail(owned[0]).source
                != "fallback-hedge",
                RESTART_WAIT_S,
            )
            assert [fleet.estimate_count(q) for q in queries] == baseline
            assert fleet.stats().restarts == 0

    def test_wedged_worker_is_hard_restarted_by_heartbeat(
        self, fleet_card, fleet_serving_config
    ):
        with make_fleet(
            fleet_card,
            fleet_serving_config,
            heartbeat_interval_s=0.1,
            heartbeat_timeout_s=0.2,
            heartbeat_misses=2,
        ) as fleet:
            pid = fleet._client(1).ready_info["pid"]
            os.kill(pid, signal.SIGSTOP)
            try:
                restarted = wait_for(
                    lambda: (client := fleet._client(1)) is not None
                    and client.alive
                    and client.ready_info is not None
                    and client.ready_info["pid"] != pid,
                    RESTART_WAIT_S,
                )
            finally:
                try:
                    os.kill(pid, signal.SIGCONT)
                except ProcessLookupError:
                    pass
            assert restarted, "wedged worker was not restarted"
            assert fleet.stats().restarts >= 1


class TestWorkerErrors:
    def test_err_frames_degrade_the_request_not_the_worker(
        self, fleet_card, fleet_serving_config, fleet_workload
    ):
        # NDV on a plain COUNT query is a caller error: the worker answers
        # with an err frame, the local NDV fallback refuses it too, and
        # the worker that reported it stays in service.
        query = next(
            q for q in fleet_workload.queries if q.agg.kind is AggKind.COUNT
        )
        with make_fleet(fleet_card, fleet_serving_config) as fleet:
            owner = fleet.owner_of(query)
            pid = fleet._client(owner).ready_info["pid"]
            for _ in range(4):
                with pytest.raises(EstimationError):
                    fleet.estimate_ndv_detail(query)
            time.sleep(0.5)  # a few supervisor sweeps
            stats = fleet.stats()
            assert stats.worker_errors == 4
            assert stats.failovers == 0
            assert stats.restarts == 0
            client = fleet._client(owner)
            assert client.alive and client.ready_info["pid"] == pid


class TestFleetClose:
    def test_close_is_clean_and_idempotent(
        self, fleet_card, fleet_serving_config, fleet_workload
    ):
        fleet = make_fleet(fleet_card, fleet_serving_config)
        fleet.estimate_count(fleet_workload.queries[0])
        pids = [info["pid"] for info in fleet.worker_infos().values()]
        assert fleet.close() is True
        assert fleet.close() is True
        for pid in pids:
            assert wait_for(
                lambda: not _process_exists(pid), 10.0
            ), f"worker pid {pid} still running after close"

    def test_close_reaps_a_wedged_worker(
        self, fleet_card, fleet_serving_config
    ):
        fleet = make_fleet(
            fleet_card, fleet_serving_config, heartbeat_interval_s=60.0
        )
        pid = fleet._client(0).ready_info["pid"]
        os.kill(pid, signal.SIGSTOP)
        clean = fleet.close(timeout=2.0)
        assert clean is False  # the wedged worker could not drain in time
        assert wait_for(lambda: not _process_exists(pid), 10.0)


def _process_exists(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover
        return True
    return True
