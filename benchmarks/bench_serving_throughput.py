"""Serving-tier throughput: the estimate cache vs. raw estimator calls.

A concurrent workload replay (8 client threads, a repeated-query request
stream, as a warehouse's plan cache misses would produce) is answered by an
:class:`EstimationService` twice: once with the estimate cache enabled, once
with it disabled (every request an individual inference call).  The cached
configuration must sustain at least 2x the throughput on this repeated
workload -- the serving tier's reason to exist.

``test_metrics_export_smoke`` additionally drives every instrumented
subsystem and fails if the unified export is missing any required series;
the export is written to ``benchmarks/results/`` as a CI artifact.

Set ``SERVING_BENCH_SMOKE=1`` to run a reduced configuration (smaller
dataset scale and request stream) suitable for a CI smoke job.
"""

from __future__ import annotations

import json
import os
import threading
import time

import pytest

from conftest import RESULTS_DIR, record_table, render_grid

from repro.core import ByteCard, ByteCardConfig
from repro.datasets import make_aeolus
from repro.serving import ServingConfig
from repro.sql.query import CardQuery, PredicateOp, TablePredicate
from repro.utils.rng import derive_rng

SMOKE = os.environ.get("SERVING_BENCH_SMOKE", "") not in ("", "0")
NUM_CLIENTS = 8
NUM_DISTINCT = 16 if SMOKE else 48
NUM_REQUESTS = 400 if SMOKE else 1600
AEOLUS_SCALE = 0.08 if SMOKE else 0.15


@pytest.fixture(scope="module")
def serving_setup():
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
    rng = derive_rng(bundle.seed, "bench-serving")
    tables = sorted(bytecard.snapshot().factorjoin.models)
    queries: list[CardQuery] = []
    for index in range(NUM_DISTINCT):
        table = tables[int(rng.integers(len(tables)))]
        columns = bundle.filter_columns[table]
        column = columns[int(rng.integers(len(columns)))]
        values = bundle.catalog.table(table).column(column).values
        anchor = float(values[int(rng.integers(len(values)))])
        op = (PredicateOp.LE, PredicateOp.GE, PredicateOp.EQ)[
            int(rng.integers(3))
        ]
        queries.append(
            CardQuery(
                tables=(table,),
                predicates=(TablePredicate(table, column, op, anchor),),
                name=f"serve-{index:03d}",
            )
        )
    # Repeated-query request stream: each distinct query replayed many times
    # in a shuffled order, as a warehouse's recurring dashboards would.
    request_ids = rng.integers(0, NUM_DISTINCT, size=NUM_REQUESTS)
    requests = [queries[i] for i in request_ids]
    return bytecard, requests


def _replay(service, requests: list[CardQuery]) -> float:
    """Replay the stream from NUM_CLIENTS threads; return seconds taken."""
    chunk = (len(requests) + NUM_CLIENTS - 1) // NUM_CLIENTS
    slices = [
        requests[i * chunk : (i + 1) * chunk] for i in range(NUM_CLIENTS)
    ]
    errors: list[Exception] = []

    def client(part: list[CardQuery]) -> None:
        try:
            for query in part:
                service.estimate_count(query)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(s,)) for s in slices]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start
    assert not errors
    return elapsed


def test_serving_throughput(serving_setup, benchmark):
    bytecard, requests = serving_setup

    def run() -> dict[str, tuple[float, object]]:
        outcomes: dict[str, tuple[float, object]] = {}
        for label, enabled in (("disabled", False), ("enabled", True)):
            service = bytecard.serve(
                ServingConfig(
                    deadline_ms=None,
                    enable_cache=enabled,
                    num_workers=8,
                    queue_capacity=256,
                )
            )
            try:
                elapsed = _replay(service, requests)
                outcomes[label] = (elapsed, service.stats())
            finally:
                service.close()
        return outcomes

    outcomes = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for label, (elapsed, stats) in outcomes.items():
        rows.append(
            [
                label,
                f"{len(requests) / elapsed:10.0f}",
                f"{stats.p50_latency * 1e3:8.3f}",
                f"{stats.p99_latency * 1e3:8.3f}",
                f"{stats.cache_hit_rate:6.2%}",
                f"{stats.fallbacks}",
            ]
        )
    table = render_grid(
        "Serving throughput: estimate cache vs. raw estimator calls",
        ["config", "req/s", "p50 ms", "p99 ms", "hit rate", "fallbacks"],
        rows,
    )
    record_table("serving_throughput", table)

    baseline = len(requests) / outcomes["disabled"][0]
    accelerated = len(requests) / outcomes["enabled"][0]
    # The serving tier's acceptance bar: >= 2x on a repeated workload.
    assert accelerated >= 2.0 * baseline, (accelerated, baseline)
    enabled_stats = outcomes["enabled"][1]
    assert enabled_stats.cache_hits > 0
    assert enabled_stats.fallbacks == 0


#: the export contract a deployment dashboard depends on; the smoke test
#: (and the CI smoke job running it) fails if any of these go missing
REQUIRED_SERIES = [
    "serving_requests_total",
    "serving_request_seconds",
    "span_seconds",
    "loader_refresh_total",
    "loader_models_loaded_total",
    "loader_generation",
    "loader_loaded_models",
    "loader_loaded_bytes",
    "monitor_assessments_total",
    "monitor_qerror_p90",
    "engine_queries_total",
    "engine_blocks_read_total",
    "engine_stage_seconds",
    "engine_hash_resizes_total",
    "engine_presize_waste_slots_total",
    "optimizer_decision_seconds",
]


def test_metrics_export_smoke(serving_setup):
    """Drive every instrumented subsystem, then verify the unified export."""
    from repro.engine import EngineSession
    from repro.obs import export_json_text, export_text, missing_series
    from repro.sql.query import AggKind, AggSpec, JoinCondition

    bytecard, requests = serving_setup
    # Monitor: one gated assessment populates the drift series.
    factorjoin = bytecard.snapshot().factorjoin
    table = sorted(factorjoin.models)[0]
    bytecard.monitor.assess_count_model(table, factorjoin)

    service = bytecard.serve(
        ServingConfig(deadline_ms=None, num_workers=NUM_CLIENTS)
    )
    try:
        _replay(service, requests[: max(64, NUM_REQUESTS // 8)])
        # Engine + optimizer: one GROUP BY join planned through the service.
        session = EngineSession(bytecard.catalog, service=service)
        session.run(
            CardQuery(
                tables=("ads", "impressions"),
                joins=(JoinCondition("ads", "ad_id", "impressions", "ad_id"),),
                group_by=(("impressions", "user_segment"),),
                agg=AggSpec(AggKind.COUNT, None, None),
                name="smoke-groupby",
            )
        )
    finally:
        service.close()

    registry = bytecard.metrics()
    missing = missing_series(registry, REQUIRED_SERIES)
    text = export_text(registry)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "metrics_export.txt").write_text(text)
    (RESULTS_DIR / "metrics_export.json").write_text(export_json_text(registry))
    assert missing == [], f"export missing required series: {missing}"
    assert 'serving_request_seconds_count{path="cache"}' in text
    assert 'serving_request_seconds_count{path="model"}' in text
