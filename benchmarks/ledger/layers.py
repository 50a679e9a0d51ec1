"""Per-layer metrics of one traced run.

Three sources, all on the benchmark's side of the public API:

* **spans** recorded at each layer boundary by :mod:`spans` (time per
  layer, self time, how each tier call was answered);
* **counter deltas** of public surfaces read before and after the measured
  part (``service.stats()``, ``router.stats()``, ``metrics_json()``);
* **replays** of the recorded estimate requests through each inner layer's
  public function, with no serving tier in between (fingerprinting, direct
  estimator calls, 16-wide batches, the frame codec on a local socketpair,
  store persist + warm-start).

Every metric is defined on every workload; a layer the workload does not
cross reports 0.
"""

from __future__ import annotations

import pickle
import shutil
import socket
import time
from typing import Callable, Sequence

from repro.core import ByteCard
from repro.errors import EstimationError
from repro.fleet.protocol import DEADLINE_FROM_CONFIG, FrameConnection
from repro.forge.store import ArtifactStore
from repro.serving.fingerprint import query_fingerprint, request_fingerprint
from repro.sql.query import AggKind

import harness
from driver import BYTECARD_CONFIG, Deployment, Replay
from spans import Span, self_times
from workloads import Stream

#: at most this many recorded requests are replayed per layer
REPLAY_CAP = 1500
BATCH_WIDTH = 16
#: plans after a refresh that count as "post-refresh"
POST_REFRESH_PLANS = 10

ESTIMATE_SPANS = ("tier.count", "tier.selectivity")
TIER_SPANS = ESTIMATE_SPANS + ("tier.ndv", "tier.group_ndv")


# ---------------------------------------------------------------------------
# Counters read from public surfaces
# ---------------------------------------------------------------------------
def counter_total(document: dict, name: str) -> float:
    """Sum of one counter over every label set of a ``metrics_json`` export."""
    return sum(
        value
        for ident, value in document["counters"].items()
        if ident == name or ident.startswith(name + "{")
    )


COUNTERS = (
    "bn_passes_total",
    "bn_passes_saved_total",
    "evidence_cache_hits_total",
    "evidence_cache_misses_total",
)


def read_counters(deployment: Deployment) -> dict[str, float]:
    """A snapshot of every counter the per-layer metrics take deltas of."""
    tier, bytecard = deployment.tier, deployment.bytecard
    fleet = deployment.workload.tier == "fleet"
    # The fleet's estimators run in the workers; its merged export has them.
    document = tier.metrics_json() if fleet else bytecard.metrics_json()
    snapshot = {name: counter_total(document, name) for name in COUNTERS}
    snapshot["loader_generation"] = bytecard.loader.generation
    stats = tier.stats()
    if fleet:
        for field in ("hedges", "failovers", "restarts"):
            snapshot[f"fleet_{field}"] = getattr(stats, field)
    else:
        for field in ("batches", "batched_requests", "rejected", "timeouts"):
            snapshot[f"serving_{field}"] = getattr(stats, field)
        snapshot["cache_invalidations"] = tier.cache.invalidations
        snapshot["cache_evictions"] = tier.cache.evictions
    return snapshot


# ---------------------------------------------------------------------------
# Replays through inner layers
# ---------------------------------------------------------------------------
def _time_each(calls: Sequence[Callable[[], object]]) -> list[float]:
    """Microseconds of each call; calls raising EstimationError are skipped."""
    micros = []
    for call in calls:
        start = time.perf_counter()
        try:
            call()
        except EstimationError:
            continue
        micros.append((time.perf_counter() - start) * 1e6)
    return micros


def replay_fingerprints(requests: Sequence[Span]) -> list[float]:
    """The cache-key computation every tier request pays, hit or miss."""
    return _time_each(
        [
            lambda s=span: request_fingerprint(
                s.name.removeprefix("tier."), "bytecard", query_fingerprint(s.arg)
            )
            for span in requests
        ]
    )


def replay_direct(bytecard: ByteCard, requests: Sequence[Span]) -> list[float]:
    """The same requests straight through the estimator, no serving."""
    calls = []
    for span in requests:
        estimate = (
            bytecard.selectivity
            if span.name == "tier.selectivity"
            else bytecard.estimate_count
        )
        calls.append(lambda q=span.arg, fn=estimate: fn(q))
    return _time_each(calls)


def replay_batches(bytecard: ByteCard, requests: Sequence[Span]) -> float:
    """Microseconds per query of same-table ``estimate_count_batch`` calls."""
    by_table: dict[str, list] = {}
    for span in requests:
        if span.arg.is_single_table():
            by_table.setdefault(span.arg.tables[0], []).append(span.arg)
    elapsed = queries = 0
    for table, group in sorted(by_table.items()):
        for offset in range(0, len(group), BATCH_WIDTH):
            chunk = group[offset : offset + BATCH_WIDTH]
            start = time.perf_counter()
            bytecard.estimate_count_batch(table, chunk)
            elapsed += time.perf_counter() - start
            queries += len(chunk)
    return elapsed * 1e6 / queries if queries else 0.0


def replay_ndv(bytecard: ByteCard, group_requests, stream_queries) -> list[float]:
    """RBX alone: group-key NDV requests and the stream's COUNT DISTINCTs."""
    calls = [lambda q=span.arg: bytecard.group_ndv(q) for span in group_requests]
    calls += [
        lambda q=query: bytecard.estimate_ndv(q)
        for query in stream_queries
        if query.agg.kind is AggKind.COUNT_DISTINCT
    ]
    return _time_each(calls[:REPLAY_CAP])


def replay_codec(requests: Sequence[Span]) -> tuple[list[float], list[int]]:
    """Round-trip recorded ``est``/``res`` payloads through the frame codec.

    One request frame and one reply frame per recorded call, over a local
    socketpair in this process: encode + send + recv + decode, no worker.
    Returns ``(microseconds per round trip, request frame bytes)``.
    """
    left, right = socket.socketpair()
    near, far = FrameConnection(left), FrameConnection(right)
    micros, sizes = [], []
    try:
        for req_id, span in enumerate(requests):
            request = ("count", span.arg, DEADLINE_FROM_CONFIG)
            reply = (1234.5, span.tag or "model", span.duration, True)
            start = time.perf_counter()
            near.send("est", req_id, request)
            far.recv()
            far.send("res", req_id, reply)
            near.recv()
            micros.append((time.perf_counter() - start) * 1e6)
            frame = pickle.dumps(
                ("est", req_id, request), protocol=pickle.HIGHEST_PROTOCOL
            )
            sizes.append(len(frame) + 4)
    finally:
        near.close()
        far.close()
    return micros, sizes


def replay_store(deployment: Deployment) -> dict[str, float]:
    """Persist the registry into a fresh store and warm-start from it."""
    directory = harness.WORK_DIR / f"replay-store-{id(deployment):x}"
    directory.mkdir(parents=True, exist_ok=True)
    try:
        start = time.perf_counter()
        store = ArtifactStore(directory)
        store.persist_registry(deployment.bytecard.registry)
        persist_s = time.perf_counter() - start
        start = time.perf_counter()
        ByteCard.from_store(deployment.bundle, directory, config=BYTECARD_CONFIG)
        warm_start_s = time.perf_counter() - start
        return {
            "store.persist_s": persist_s,
            "store.warm_start_s": warm_start_s,
            "store.bytes": float(store.total_bytes()),
        }
    finally:
        shutil.rmtree(directory, ignore_errors=True)


# ---------------------------------------------------------------------------
# The per-layer metric set
# ---------------------------------------------------------------------------
def _p(values, q) -> float:
    return harness.percentile(values, q)


def _us(spans: Sequence[Span]) -> list[float]:
    return [span.duration * 1e6 for span in spans]


def per_layer_metrics(
    deployment: Deployment,
    stream: Stream,
    traced: Replay,
    spans: Sequence[Span],
    before: dict[str, float],
    after: dict[str, float],
    untraced_ms_per_query: float,
) -> dict[str, dict]:
    """Every per-layer metric of one traced run (``spans``: measured part)."""
    m = harness.metric
    bytecard = deployment.bytecard
    fleet = deployment.workload.tier == "fleet"
    delta = {key: after[key] - before[key] for key in after}

    own = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def named(*names: str) -> list[Span]:
        return [span for name in names for span in by_name.get(name, [])]

    def self_seconds(*names: str) -> float:
        return sum(own[id(span)] for span in named(*names))

    query_seconds = sum(span.duration for span in named("query")) or 1.0
    # refreshes run between queries, outside every "query" span
    accounted = sum(
        own[id(span)]
        for span in spans
        if span.name not in ("query", "loader.refresh")
    )

    estimates = named(*ESTIMATE_SPANS)
    hits = [span for span in estimates if span.tag == "cache"]
    misses = [span for span in estimates if span.tag not in ("cache", "raised")]
    plans = named("optimizer.plan")
    executes = named("executor.execute")

    sample = estimates[:REPLAY_CAP]
    missed = misses[:REPLAY_CAP]
    # one replay per request; single-table first, so the split is by position
    direct_single = replay_direct(
        bytecard, [s for s in missed if s.arg.is_single_table()]
    )
    direct_join = replay_direct(
        bytecard, [s for s in missed if not s.arg.is_single_table()]
    )
    direct = direct_single + direct_join
    seqs = traced.merged("seqs")
    ndv = replay_ndv(
        bytecard, named("tier.group_ndv"), [stream.queries[seq] for seq in seqs]
    )

    passes = delta["bn_passes_total"]
    saved = delta["bn_passes_saved_total"]
    evidence_lookups = (
        delta["evidence_cache_hits_total"] + delta["evidence_cache_misses_total"]
    )
    completed = max(1, len(seqs))
    weights = harness.balanced_weights([stream.strata[seq] for seq in seqs])
    tail_q, tail_query_ms = harness.tail(traced.merged("query_ms"), weights)
    _, tail_plan_ms = harness.tail(traced.merged("plan_ms"), weights)

    metrics = {
        # -- sql ---------------------------------------------------------
        "sql.parse_us_p50": m(_p(_us(named("sql.parse")), 0.5), "us"),
        "sql.bind_us_p50": m(_p(_us(named("sql.bind")), 0.5), "us"),
        "sql.share": m(self_seconds("sql.parse", "sql.bind") / query_seconds, "share"),
        # -- serving.fingerprint -------------------------------------------
        "fingerprint.us_p50": m(_p(replay_fingerprints(sample), 0.5), "us"),
        # -- serving.cache -------------------------------------------------
        "cache.hit_rate": m(len(hits) / max(1, len(estimates)), "share"),
        "cache.hit_us_p50": m(_p(_us(hits), 0.5), "us"),
        "cache.invalidations": m(delta.get("cache_invalidations", 0), "count"),
        "cache.evictions": m(delta.get("cache_evictions", 0), "count"),
        # -- serving.core / serving.batching -------------------------------
        "serving.estimate_us_p50": m(_p(_us(named(*TIER_SPANS)), 0.5), "us"),
        "serving.estimate_us_p90": m(_p(_us(named(*TIER_SPANS)), 0.9), "us"),
        "serving.miss_us_p50": m(_p(_us(misses), 0.5), "us"),
        "serving.miss_overhead_us": m(
            _p(_us(missed), 0.5) - _p(direct, 0.5) if direct else 0.0, "us"
        ),
        "serving.share": m(self_seconds(*TIER_SPANS) / query_seconds, "share"),
        "serving.batch_occupancy": m(
            delta.get("serving_batched_requests", 0)
            / max(1, delta.get("serving_batches", 0)),
            "count",
        ),
        "serving.batches": m(delta.get("serving_batches", 0), "count"),
        "serving.rejected": m(delta.get("serving_rejected", 0), "count"),
        "serving.timeouts": m(delta.get("serving_timeouts", 0), "count"),
        # -- estimators.bn / factorjoin / rbx ------------------------------
        "estimators.count_us_p50": m(_p(direct, 0.5), "us"),
        "estimators.count_us_p90": m(_p(direct, 0.9), "us"),
        "bn.single_us_p50": m(_p(direct_single, 0.5), "us"),
        "factorjoin.join_us_p50": m(_p(direct_join, 0.5), "us"),
        "estimators.batch16_us_per_query": m(replay_batches(bytecard, missed), "us"),
        "rbx.ndv_us_p50": m(_p(ndv, 0.5), "us"),
        "bn.passes_per_estimate": m(passes / max(1, len(estimates)), "count"),
        "bn.passes_saved_share": m(saved / max(1.0, passes + saved), "share"),
        "bn.evidence_hit_rate": m(
            delta["evidence_cache_hits_total"] / max(1.0, evidence_lookups), "share"
        ),
        # -- engine.optimizer ----------------------------------------------
        "optimizer.self_ms_p50": m(
            _p([own[id(span)] * 1e3 for span in plans], 0.5), "ms"
        ),
        "optimizer.share": m(self_seconds("optimizer.plan") / query_seconds, "share"),
        "optimizer.estimates_per_plan": m(
            len(named(*TIER_SPANS)) / max(1, len(plans)), "count"
        ),
        # -- engine.executor -----------------------------------------------
        "executor.ms_p50": m(_p(_us(executes), 0.5) / 1e3, "ms"),
        "executor.ms_p90": m(_p(_us(executes), 0.9) / 1e3, "ms"),
        "executor.share": m(self_seconds("executor.execute") / query_seconds, "share"),
        "executor.blocks_read_per_query": m(
            traced.total("blocks_read") / completed, "count"
        ),
        "executor.hash_resizes_per_query": m(
            traced.total("hash_resizes") / completed, "count"
        ),
        # -- fleet.protocol / fleet.router ---------------------------------
        "fleet.rpc_us_p50": m(_p(_us(hits), 0.5) if fleet else 0.0, "us"),
        "fleet.codec_us_p50": m(0.0, "us"),
        "fleet.frame_bytes_p50": m(0.0, "bytes"),
        "fleet.hedges": m(delta.get("fleet_hedges", 0), "count"),
        "fleet.failovers": m(delta.get("fleet_failovers", 0), "count"),
        "fleet.restarts": m(delta.get("fleet_restarts", 0), "count"),
        "fleet.worker_rss_mb": m(
            sum(harness.rss_mb(pid) for pid in deployment.worker_pids()), "MB"
        ),
        # -- forge.store / core.modelforge ---------------------------------
        "forge.train_s": m(deployment.phases["train_s"], "s"),
        "forge.model_bytes": m(
            sum(
                bytecard.registry.latest(kind, name).nbytes
                for kind, name in bytecard.registry.keys()
            ),
            "bytes",
        ),
        "store.persist_s": m(0.0, "s"),
        "store.warm_start_s": m(0.0, "s"),
        "store.bytes": m(0.0, "bytes"),
        # -- core.loader ---------------------------------------------------
        "loader.refresh_ms_p50": m(_p(_us(named("loader.refresh")), 0.5) / 1e3, "ms"),
        "loader.post_refresh_plan_ms_p50": m(
            _p(post_refresh_plan_ms(traced), 0.5), "ms"
        ),
        "loader.generation_bumps": m(delta["loader_generation"], "count"),
        # -- tails demoted from the end-to-end set -------------------------
        "tail.query_ms": m(tail_query_ms, "ms"),
        "tail.plan_ms": m(tail_plan_ms, "ms"),
        "tail.percentile": m(tail_q * 100.0, "%"),
        # -- harness ---------------------------------------------------------
        "trace.overhead_share": m(
            (traced.wall_s * 1e3 / max(1, traced.attempted)) / untraced_ms_per_query
            - 1.0,
            "share",
        ),
        "trace.accounted_share": m(accounted / query_seconds, "share"),
        "workload.measured_queries": m(traced.attempted, "count"),
        "workload.templates": m(stream.templates, "count"),
        "workload.templates_rejected": m(stream.templates_rejected, "count"),
        "workload.templates_dropped_by_name": m(
            stream.templates_dropped_by_name, "count"
        ),
    }
    if fleet:
        codec_us, frame_bytes = replay_codec(named("tier.count")[:REPLAY_CAP])
        metrics["fleet.codec_us_p50"] = m(_p(codec_us, 0.5), "us")
        metrics["fleet.frame_bytes_p50"] = m(_p(frame_bytes, 0.5), "bytes")
        for name, value in replay_store(deployment).items():
            unit = "bytes" if name.endswith("bytes") else "s"
            metrics[name] = m(value, unit)
    return metrics


def post_refresh_plan_ms(traced: Replay) -> list[float]:
    """``plan_ms`` of the first plans after each refresh."""
    affected: set[int] = set()
    for at in traced.merged("refreshed_at"):
        affected.update(range(at, at + POST_REFRESH_PLANS))
    return [
        plan_ms
        for log in traced.logs
        for seq, plan_ms in zip(log.seqs, log.plan_ms)
        if seq in affected
    ]
