"""The closed-loop driver: SQL text in, executed result out.

One client replays its share of a :class:`~workloads.Stream` through the
three public calls a warehouse front-end makes anyway -- ``bind_sql`` ->
``EngineSession.optimizer.plan`` -> ``EngineSession.executor.execute`` --
and waits for each result before sending the next query (closed loop: the
optimizer waits for each estimate, a session waits for each query).
Estimates are served by the tier the workload names.  No estimate depends
on timing: the serving deadline is off and the fleet's hedge timer is set
to 30 s, so a slow machine yields slower numbers, never different plans.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import math
import os
import shutil
import threading
import time
from contextlib import nullcontext

from repro.core import ByteCard
from repro.core.config import ByteCardConfig
from repro.engine import EngineSession, EstimatorSuite
from repro.fleet import FleetConfig
from repro.metrics.qerror import qerror_many
from repro.serving import ServingConfig
from repro.sql import bind_sql
from repro.sql.query import AggKind
from repro.workloads.truth import true_count, true_group_ndv, true_ndv

import harness
from spans import SpanRecorder, instrument_refresh, instrument_session, instrument_tier
from workloads import Stream, WorkloadDef, build_dataset

#: one knob off its default: the RBX training corpus is 10x smaller, which
#: takes ``ByteCard.build`` from ~9.5 s to ~1.5 s.  Synthetic-corpus
#: generation would otherwise be >80 % of ``setup_s`` and hide everything a
#: later change could move into set-up (compilation, warm-start, warm-up).
BYTECARD_CONFIG = ByteCardConfig(rbx_corpus_size=300)
#: no deadline: every request waits for the learned estimate
SERVING_CONFIG = ServingConfig(deadline_ms=None)
#: every this-many-th query's result is compared with exact ground truth
TRUTH_EVERY = 25


def client_threads(workload: WorkloadDef) -> int:
    return min(workload.clients, os.cpu_count() or 1)


def fleet_config() -> FleetConfig:
    workers = max(1, (os.cpu_count() or 1) - 1)
    return FleetConfig(n_workers=workers, hedge_timeout_ms=30_000.0)


# ---------------------------------------------------------------------------
# What one client observed
# ---------------------------------------------------------------------------
class ClientLog:
    """Per-query observations of one client thread (merged after the run)."""

    def __init__(self) -> None:
        self.seqs: list[int] = []
        self.plan_ms: list[float] = []
        self.query_ms: list[float] = []
        #: (estimated rows, rows surviving the scan, seq) per scanned table
        self.scans: list[tuple[float, int, int]] = []
        #: estimate provenance -> count, summed over plan decisions
        self.provenance: dict[str, int] = {}
        #: seq -> (result_rows, groups, aggregate_value, estimates)
        self.results: dict[int, tuple] = {}
        self.blocks_read = 0
        self.hash_resizes = 0
        #: (seq, what went wrong) for queries that raised or broke a check
        self.failures: list[tuple[int, str]] = []
        #: the seq each model refresh ran in front of
        self.refreshed_at: list[int] = []
        self.started = 0.0
        self.ended = 0.0

    def record(self, seq: int, t0: float, t_plan: float, t_done: float, plan, result):
        estimates = []
        for table, estimate in sorted(plan.estimated_table_rows.items()):
            if not (math.isfinite(estimate) and estimate >= 0.0):
                self.failures.append((seq, f"estimate {estimate!r} for {table}"))
                return
            actual = int(result.scans[table].row_indices.size)
            self.scans.append((estimate, actual, seq))
            estimates.append(f"{estimate:.6g}")
        for sources in plan.decision_provenance.values():
            for source, count in sources.items():
                self.provenance[source] = self.provenance.get(source, 0) + count
        self.seqs.append(seq)
        self.plan_ms.append((t_plan - t0) * 1e3)
        self.query_ms.append((t_done - t0) * 1e3)
        self.blocks_read += result.blocks_read
        self.hash_resizes += result.resize_count
        self.results[seq] = (
            result.result_rows,
            result.groups,
            result.aggregate_value,
            tuple(estimates),
        )


@dataclasses.dataclass
class Replay:
    """One replayed stretch of a stream, all clients merged."""

    logs: list[ClientLog]
    wall_s: float
    #: queries sent (completed or failed)
    attempted: int

    def merged(self, field: str) -> list:
        return [item for log in self.logs for item in getattr(log, field)]

    def total(self, field: str) -> int:
        return sum(getattr(log, field) for log in self.logs)

    def covered(self) -> int:
        """Length of the contiguous prefix every client got through."""
        return len(self.logs) * min(
            len(log.seqs) + len(log.failures) for log in self.logs
        )

    @property
    def failures(self) -> list[tuple[int, str]]:
        return sorted(self.merged("failures"))

    @property
    def results(self) -> dict[int, tuple]:
        return {seq: r for log in self.logs for seq, r in log.results.items()}

    @property
    def provenance(self) -> dict[str, int]:
        total: dict[str, int] = {}
        for log in self.logs:
            for source, count in log.provenance.items():
                total[source] = total.get(source, 0) + count
        return total


# ---------------------------------------------------------------------------
# A deployment: dataset + trained ByteCard + serving tier + sessions
# ---------------------------------------------------------------------------
class Deployment:
    """Everything ``setup_s`` pays for, torn down by :meth:`close`."""

    def __init__(self, workload: WorkloadDef, recorder: SpanRecorder | None = None):
        self.workload = workload
        self.recorder = recorder
        self.phases: dict[str, float] = {}
        self.store_dir = None
        start = time.perf_counter()
        self.bundle = build_dataset(workload)
        self.phases["dataset_s"] = time.perf_counter() - start

        start = time.perf_counter()
        self.bytecard = ByteCard.build(self.bundle, BYTECARD_CONFIG)
        self.phases["train_s"] = time.perf_counter() - start

        start = time.perf_counter()
        if workload.tier == "fleet":
            harness.WORK_DIR.mkdir(parents=True, exist_ok=True)
            self.store_dir = harness.WORK_DIR / f"store-{os.getpid()}-{id(self):x}"
            self.tier = self.bytecard.fleet(
                store_dir=self.store_dir,
                serving_config=SERVING_CONFIG,
                fleet_config=fleet_config(),
            )
        else:
            self.tier = self.bytecard.serve(SERVING_CONFIG)
        if recorder is not None:
            # Before any session exists: as_strategy binds methods at
            # construction, so the wrappers must already be in place.
            instrument_tier(recorder, self.tier)
            instrument_refresh(recorder, self.bytecard)
        self.sessions = [self._session() for _ in range(client_threads(workload))]
        self.phases["tier_start_s"] = time.perf_counter() - start
        self._bn_tables = sorted(
            name
            for kind, name in self.bytecard.registry.keys()
            if kind == "bn" and "@" not in name
        )
        self._refreshes = 0

    def _session(self) -> EngineSession:
        catalog = self.bundle.catalog
        if self.workload.tier == "fleet":
            suite = EstimatorSuite("fleet", self.tier, self.tier)
            session = EngineSession(catalog, suite=suite)
        else:
            session = EngineSession(catalog, service=self.tier)
        if self.recorder is not None:
            instrument_session(self.recorder, session)
        return session

    def configs(self) -> dict:
        """The effective knobs, echoed into the ledger document."""
        echo = {
            "bytecard": harness.config_echo(BYTECARD_CONFIG),
            "serving": harness.config_echo(SERVING_CONFIG),
            "engine": harness.config_echo(self.sessions[0].config),
            "clients": len(self.sessions),
        }
        if self.workload.tier == "fleet":
            echo["fleet"] = harness.config_echo(fleet_config())
        return echo

    def republish_and_refresh(self) -> None:
        """Republish one table's *current* BN (round-robin) and refresh.

        Identical bytes under a new version: the loader reloads the model,
        generations bump, caches invalidate, the FactorJoin estimator is
        rebuilt -- and every estimate stays what it was.
        """
        table = self._bn_tables[self._refreshes % len(self._bn_tables)]
        self._refreshes += 1
        current = self.bytecard.registry.latest("bn", table)
        self.bytecard.registry.publish("bn", table, current.blob)
        self.bytecard.refresh()

    def worker_pids(self) -> list[int]:
        if self.workload.tier != "fleet":
            return []
        infos = self.tier.worker_infos().values()
        return [info["pid"] for info in infos if info]

    def rss_mb(self) -> float:
        """This process plus the fleet's live workers."""
        return harness.rss_mb() + sum(harness.rss_mb(pid) for pid in self.worker_pids())

    def close(self) -> None:
        self.tier.close()
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)
        self.sessions = []
        gc.collect()


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------
def _client_loop(
    deployment: Deployment,
    session: EngineSession,
    stream: Stream,
    seqs: range,
    deadline: float | None,
    log: ClientLog,
) -> None:
    catalog = deployment.bundle.catalog
    recorder = deployment.recorder
    refresh_every = deployment.workload.refresh_every
    plan_query = session.optimizer.plan
    execute = session.executor.execute
    untraced = nullcontext()
    log.started = time.perf_counter()
    for seq in seqs:
        if deadline is not None and time.perf_counter() >= deadline:
            break
        if refresh_every and seq and seq % refresh_every == 0:
            deployment.republish_and_refresh()
            log.refreshed_at.append(seq)
        scope = recorder.span("query", query_id=seq) if recorder else untraced
        try:
            with scope:
                t0 = time.perf_counter()
                query = bind_sql(stream.sqls[seq], catalog)
                plan = plan_query(query)
                t_plan = time.perf_counter()
                result = execute(plan)
                t_done = time.perf_counter()
        except Exception as exc:  # a failed query is a finding, not a crash
            log.failures.append((seq, f"{type(exc).__name__}: {exc}"))
            continue
        log.record(seq, t0, t_plan, t_done, plan, result)
    log.ended = time.perf_counter()


def replay(
    deployment: Deployment,
    stream: Stream,
    first: int,
    stop: int,
    seconds: float | None = None,
) -> Replay:
    """Replay ``stream[first:stop]``; with ``seconds``, stop sending then."""
    sessions = deployment.sessions
    logs = [ClientLog() for _ in sessions]
    deadline = None if seconds is None else time.perf_counter() + seconds
    shares = [range(first + i, stop, len(sessions)) for i in range(len(sessions))]
    if len(sessions) == 1:
        _client_loop(deployment, sessions[0], stream, shares[0], deadline, logs[0])
    else:
        errors: list[BaseException] = []

        def run(index: int) -> None:
            try:
                _client_loop(
                    deployment, sessions[index], stream, shares[index], deadline,
                    logs[index],
                )
            except BaseException as exc:
                errors.append(exc)
                raise

        threads = [
            threading.Thread(target=run, args=(i,), name=f"ledger-client-{i}")
            for i in range(len(sessions))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
    wall = max(log.ended for log in logs) - min(log.started for log in logs)
    attempted = sum(len(log.seqs) + len(log.failures) for log in logs)
    return Replay(logs=logs, wall_s=wall, attempted=attempted)


def set_up(
    workload: WorkloadDef, stream: Stream, recorder: SpanRecorder | None = None
) -> tuple[Deployment, Replay, float]:
    """One full set-up: build, train, start the tier, run the warm-up prefix.

    Returns ``(deployment, warm-up replay, setup seconds)``.
    """
    start = time.perf_counter()
    deployment = Deployment(workload, recorder)
    try:
        warmup = replay(deployment, stream, 0, harness.warmup_count(len(stream)))
    except BaseException:
        deployment.close()
        raise
    deployment.phases["warmup_s"] = warmup.wall_s
    return deployment, warmup, time.perf_counter() - start


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------
def truth_mismatches(
    deployment: Deployment, stream: Stream, results: dict[int, tuple]
) -> tuple[int, list[tuple[int, str]]]:
    """Compare every 25th query's result with exact ground truth.

    Returns ``(results checked, [(seq, what differs)])``.
    """
    catalog = deployment.bundle.catalog
    checked = 0
    mismatches: list[tuple[int, str]] = []
    for seq, (rows, groups, value, _estimates) in sorted(results.items()):
        if seq % TRUTH_EVERY:
            continue
        checked += 1
        query = stream.queries[seq]
        expected_rows = true_count(catalog, query)
        if rows != expected_rows:
            mismatches.append((seq, f"result_rows {rows} != {expected_rows}"))
        elif query.group_by:
            expected = true_group_ndv(catalog, query)
            if groups != expected:
                mismatches.append((seq, f"groups {groups} != {expected}"))
        else:
            counting = query.agg.kind is AggKind.COUNT
            expected = expected_rows if counting else true_ndv(catalog, query)
            if value != expected:
                mismatches.append((seq, f"aggregate {value} != {expected}"))
    return checked, mismatches


def result_checksum(results: dict[int, tuple], first: int, count: int) -> str | None:
    """Digest of ``count`` consecutive results from ``first``; None if any
    of them is missing (the run ended before reaching it, or it failed)."""
    digest = hashlib.sha256()
    for seq in range(first, first + count):
        if seq not in results:
            return None
        digest.update(repr((seq, results[seq])).encode())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# End-to-end metrics
# ---------------------------------------------------------------------------
DEGRADED_SOURCES = ("fallback", "detail_error")
#: provenance entries that count BN passes, not estimates
PASS_COUNTERS = ("bn_pass", "bn_pass_saved")


def estimate_shares(provenance: dict[str, int]) -> tuple[int, int]:
    """``(estimates, degraded estimates)`` from plan decision provenance."""
    estimates = degraded = 0
    for source, count in provenance.items():
        if source in PASS_COUNTERS:
            continue
        estimates += count
        if source.startswith(DEGRADED_SOURCES):
            degraded += count
    return estimates, degraded


def end_to_end_metrics(
    stream: Stream,
    measured: Replay,
    failed: int,
    setup_seconds: list[float],
    rss_mb: float,
) -> dict[str, dict]:
    """The user-visible numbers of one untraced run.

    Percentiles are template-balanced (:func:`harness.balanced_weights`).
    """
    m = harness.metric
    query_ms = measured.merged("query_ms")
    plan_ms = measured.merged("plan_ms")
    weights = harness.balanced_weights(
        [stream.strata[seq] for seq in measured.merged("seqs")]
    )
    scans = measured.merged("scans")
    qerrors = qerror_many([e for e, _, _ in scans], [a for _, a, _ in scans])
    scan_weights = harness.balanced_weights(
        [stream.strata[seq] for _, _, seq in scans]
    )
    estimates, degraded = estimate_shares(measured.provenance)
    attempted = max(1, measured.attempted)

    def p(values, q, mass=weights):
        return harness.percentile(values, q, mass)

    return {
        "setup_s": m(harness.percentile(setup_seconds, 0.5), "s"),
        "query_ms_p50": m(p(query_ms, 0.5), "ms"),
        "query_ms_p90": m(p(query_ms, 0.9), "ms"),
        "plan_ms_p50": m(p(plan_ms, 0.5), "ms"),
        "plan_ms_p90": m(p(plan_ms, 0.9), "ms"),
        "queries_per_s": m((attempted - failed) / measured.wall_s, "1/s"),
        "ok_share": m((attempted - failed) / attempted, "share"),
        "learned_share": m((estimates - degraded) / max(1, estimates), "share"),
        "scan_qerror_p50": m(p(qerrors, 0.5, scan_weights), "ratio"),
        "scan_qerror_p90": m(p(qerrors, 0.9, scan_weights), "ratio"),
        "rss_mb": m(rss_mb, "MB"),
    }
