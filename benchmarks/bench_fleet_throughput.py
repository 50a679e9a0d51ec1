"""Fleet throughput: multi-process sharded serving vs. a single worker.

A concurrent workload replay (8 client threads, a distinct-query request
stream so per-request model inference dominates transport cost) is
answered by a :class:`FleetRouter` twice: once with a single worker
process, once with ``FLEET_WORKERS`` workers.  On a multi-core host the
fleet must sustain at least 1.7x the single-worker throughput -- the
fleet's reason to exist.  The scaling assertion is gated on core count
(a 1-core container cannot run workers in parallel); the measured
numbers are always written to ``benchmarks/results/fleet_throughput.json``
as a CI artifact, along with the merged worker-labelled metrics export.

``test_fleet_kill_recovery`` replays the stream while a worker is
SIGKILLed mid-flight: every request must still be answered (failover to
the router-local fallback), and the supervisor must restart and re-warm
the worker from the artifact store.

Set ``FLEET_BENCH_SMOKE=1`` to run a reduced configuration (2 workers,
smaller dataset scale and request stream) suitable for a CI smoke job.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time

import pytest

from conftest import RESULTS_DIR, record_table, render_grid

from repro.core import ByteCard, ByteCardConfig
from repro.datasets import make_aeolus
from repro.fleet import FleetConfig
from repro.serving import ServingConfig
from repro.sql.query import CardQuery, PredicateOp, TablePredicate
from repro.utils.rng import derive_rng

SMOKE = os.environ.get("FLEET_BENCH_SMOKE", "") not in ("", "0")
NUM_CLIENTS = 8
NUM_REQUESTS = 240 if SMOKE else 2000
AEOLUS_SCALE = 0.08 if SMOKE else 0.15
FLEET_WORKERS = 2 if SMOKE else 4
SCALING_FLOOR = 1.7


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _fleet_config(n_workers: int, **overrides) -> FleetConfig:
    # Hedging is for transport/process trouble, not for saturated-worker
    # queueing: a throughput replay intentionally saturates the workers,
    # so the hedge budget is set far above any queueing delay.
    defaults = dict(
        n_workers=n_workers,
        hedge_timeout_ms=30_000.0,
        handler_threads=NUM_CLIENTS,
    )
    defaults.update(overrides)
    return FleetConfig(**defaults)


@pytest.fixture(scope="module")
def fleet_setup():
    bundle = make_aeolus(scale=AEOLUS_SCALE)
    config = ByteCardConfig(
        training_sample_rows=4000,
        rbx_corpus_size=200,
        rbx_epochs=4,
        monitor_queries_per_table=4,
        join_bucket_count=40,
        max_bins=32,
    )
    bytecard = ByteCard.build(bundle, config=config, run_monitor=False)
    rng = derive_rng(bundle.seed, "bench-fleet")
    tables = sorted(bytecard.snapshot().factorjoin.models)
    # Distinct queries throughout: the warm cache never answers twice, so
    # throughput is bounded by model inference -- the work the fleet shards.
    requests: list[CardQuery] = []
    for index in range(NUM_REQUESTS):
        table = tables[int(rng.integers(len(tables)))]
        columns = bundle.filter_columns[table]
        column = columns[int(rng.integers(len(columns)))]
        values = bundle.catalog.table(table).column(column).values
        anchor = float(values[int(rng.integers(len(values)))])
        op = (PredicateOp.LE, PredicateOp.GE, PredicateOp.EQ)[
            int(rng.integers(3))
        ]
        requests.append(
            CardQuery(
                tables=(table,),
                predicates=(TablePredicate(table, column, op, anchor),),
                name=f"fleet-{index:04d}",
            )
        )
    return bytecard, requests


def _replay(router, requests: list[CardQuery]) -> tuple[float, list]:
    """Replay from NUM_CLIENTS threads; return (seconds, ordered details)."""
    chunk = (len(requests) + NUM_CLIENTS - 1) // NUM_CLIENTS
    slices = [
        requests[i * chunk : (i + 1) * chunk] for i in range(NUM_CLIENTS)
    ]
    details: list[list] = [[] for _ in slices]
    errors: list[Exception] = []

    def client(index: int, part: list[CardQuery]) -> None:
        try:
            for query in part:
                details[index].append(router.estimate_count_detail(query))
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [
        threading.Thread(target=client, args=(i, s))
        for i, s in enumerate(slices)
    ]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start
    assert not errors
    return elapsed, [d for part in details for d in part]


def test_fleet_throughput_scales_with_workers(fleet_setup):
    bytecard, requests = fleet_setup
    outcomes: dict[str, dict] = {}
    serving = ServingConfig(deadline_ms=None, num_workers=NUM_CLIENTS)
    for label, n_workers in (("single", 1), ("fleet", FLEET_WORKERS)):
        router = bytecard.fleet(
            n_workers=n_workers,
            serving_config=serving,
            fleet_config=_fleet_config(n_workers),
        )
        try:
            elapsed, details = _replay(router, requests)
            stats = router.stats()
            outcomes[label] = {
                "workers": n_workers,
                "elapsed_s": elapsed,
                "rps": len(requests) / elapsed,
                "values": [d.value for d in details],
                "degraded": sum(1 for d in details if d.degraded),
                "hedges": stats.hedges,
                "failovers": stats.failovers,
            }
            if label == "fleet":
                # The merged worker-labelled export is the CI artifact a
                # deployment dashboard would scrape.
                text = router.metrics_text()
                RESULTS_DIR.mkdir(exist_ok=True)
                (RESULTS_DIR / "fleet_metrics_export.txt").write_text(text)
                (RESULTS_DIR / "fleet_metrics_export.json").write_text(
                    json.dumps(router.metrics_json(), indent=2, sort_keys=True)
                )
                assert "fleet_requests_total" in text
                assert "serving_requests_total" in text
                for worker_id in range(n_workers):
                    assert f'worker="{worker_id}"' in text
        finally:
            router.close()

    # Sharded serving must not change a single answer.
    assert outcomes["fleet"]["values"] == outcomes["single"]["values"]
    # No request degraded to the fallback path in either configuration.
    assert outcomes["single"]["degraded"] == 0
    assert outcomes["fleet"]["degraded"] == 0

    speedup = outcomes["fleet"]["rps"] / outcomes["single"]["rps"]
    cores = _cores()
    scaling_asserted = not SMOKE and cores >= 4
    report = {
        "mode": "smoke" if SMOKE else "full",
        "num_requests": len(requests),
        "num_clients": NUM_CLIENTS,
        "cores": cores,
        "speedup": speedup,
        "scaling_floor": SCALING_FLOOR,
        "scaling_asserted": scaling_asserted,
        "configs": {
            label: {k: v for k, v in outcome.items() if k != "values"}
            for label, outcome in outcomes.items()
        },
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "fleet_throughput.json").write_text(
        json.dumps(report, indent=2, sort_keys=True)
    )
    rows = [
        [
            label,
            f"{outcome['workers']}",
            f"{outcome['rps']:10.0f}",
            f"{outcome['elapsed_s']:8.3f}",
            f"{outcome['hedges']}",
            f"{outcome['failovers']}",
        ]
        for label, outcome in outcomes.items()
    ]
    rows.append(["speedup", "", f"{speedup:10.2f}x", "", "", ""])
    record_table(
        "fleet_throughput",
        render_grid(
            f"Fleet throughput: {FLEET_WORKERS} workers vs. 1 "
            f"({cores} cores, scaling {'asserted' if scaling_asserted else 'reported only'})",
            ["config", "workers", "req/s", "elapsed s", "hedges", "failovers"],
            rows,
        ),
    )
    if scaling_asserted:
        # The fleet's acceptance bar: >= 1.7x at 4 workers on >= 4 cores.
        assert speedup >= SCALING_FLOOR, report


def test_fleet_kill_recovery(fleet_setup):
    """A worker SIGKILLed mid-replay loses no request and is re-warmed."""
    bytecard, requests = fleet_setup
    stream = requests[: max(80, NUM_REQUESTS // 4)]
    router = bytecard.fleet(
        n_workers=FLEET_WORKERS,
        serving_config=ServingConfig(deadline_ms=None),
        fleet_config=_fleet_config(
            FLEET_WORKERS, heartbeat_interval_s=0.1, heartbeat_timeout_s=0.5
        ),
    )
    try:
        baseline = [router.estimate_count(q) for q in stream]
        # Kill the worker that owns the head of the stream so the outage
        # provably intersects the replay.
        victim_id = router.owner_of(stream[0])
        old_pid = router._client(victim_id).ready_info["pid"]
        os.kill(old_pid, signal.SIGKILL)
        _elapsed, details = _replay(router, stream)

        # Zero lost requests: every answer is a number, the owner's shard
        # degraded to the router-local fallback during the outage.
        assert len(details) == len(stream)
        assert all(d.value >= 0 for d in details)
        assert any(d.failover for d in details)

        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            client = router._client(victim_id)
            if (
                client is not None
                and client.alive
                and client.ready_info is not None
                and client.ready_info["pid"] != old_pid
            ):
                break
            time.sleep(0.05)
        else:  # pragma: no cover - failure path
            pytest.fail("killed worker was not restarted")
        assert router.stats().restarts >= 1

        # Post-restart the re-warmed worker answers bit-identically again.
        recovered = [router.estimate_count_detail(q) for q in stream]
        assert [d.value for d in recovered] == baseline
        assert not any(d.failover for d in recovered)
    finally:
        router.close()
