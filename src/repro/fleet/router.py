"""The fleet router: sharded dispatch, hedging, and worker supervision.

:class:`FleetRouter` is the fleet's front door and the optimizer's drop-in
estimator (:class:`CountEstimator` / :class:`NdvEstimator`): a request is
fingerprinted to its shard owner on the consistent-hash ring, dispatched
over the owner's frame connection, and answered from the worker's
:class:`~repro.serving.core.EstimationCore` -- the same pipeline, caches
and degradation contract as in-process serving, so values are
bit-identical to a single-process :class:`EstimationService` over the same
store.

What the router adds is *fault tolerance around processes*:

* **hedging** -- a worker answers within its serving deadline (its core
  degrades internally), so the router waits ``deadline * (1 +
  hedge_fraction)`` and then computes the traditional fallback locally.
  If the worker's reply lands while the hedge is being computed, the
  late reply wins (it is the learned estimate; the hedge was wasted
  work, which is counted).  Otherwise the request is abandoned -- a
  late reply is dropped by the client, never double-answered.
* **failover** -- a dead worker (EOF mid-request, failed submit, circuit
  open) degrades the request to the local traditional estimator
  immediately; no request is lost.
* **supervision** -- a heartbeat thread pings every worker; a dead or
  wedged (``heartbeat_misses`` silent pings) worker is restarted and
  re-warmed from the artifact store, up to ``max_restarts`` times.
  Consecutive request failures open a circuit that forces the same
  restart path without waiting for the heartbeat to notice.

Fleet-wide observability: every worker ships its registry snapshot over
IPC; :meth:`metrics_registry` merges them with the router's own registry
under per-process ``worker`` labels (see :mod:`repro.obs.merge`).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import Callable

from repro.core.config import ByteCardConfig
from repro.datasets.base import DatasetBundle
from repro.errors import EstimationError, FleetError, WorkerDied
from repro.estimators.base import CountEstimator, NdvEstimator
from repro.fleet.client import FRAME_DROP_REASONS, WorkerClient
from repro.fleet.config import FleetConfig
from repro.fleet.sharding import ShardMap
from repro.fleet.worker import WorkerSpec
from repro.obs import export_json, export_text, merged_registry
from repro.obs.metrics import MetricsRegistry
from repro.serving.config import ServingConfig
from repro.sql.query import CardQuery

__all__ = ["FleetRouter", "FleetEstimate", "FleetStats"]


@dataclass(frozen=True)
class FleetEstimate:
    """One routed request: the value plus how the fleet produced it."""

    value: float
    #: the worker-reported serving source ("cache" | "model" | ...), or the
    #: router-level "fallback-hedge" / "fallback-failover" / "fallback-error"
    source: str
    #: shard owner the request was routed to
    worker: int
    latency_s: float
    #: the hedge timer fired (even if the worker's late reply won)
    hedged: bool = False
    #: the owner was unusable and the router answered locally
    failover: bool = False

    @property
    def degraded(self) -> bool:
        return self.source.startswith("fallback")


@dataclass(frozen=True)
class FleetStats:
    """Router-level counters (worker-side serving stats live in metrics)."""

    requests: int = 0
    hedges: int = 0
    #: hedges whose fallback compute was discarded for a late worker reply
    hedges_wasted: int = 0
    failovers: int = 0
    worker_errors: int = 0
    restarts: int = 0


class FleetRouter(CountEstimator, NdvEstimator):
    """Multi-process serving fleet behind one estimator interface."""

    name = "fleet"

    def __init__(
        self,
        bundle: DatasetBundle,
        store_dir,
        fallback_count: CountEstimator,
        fallback_ndv: NdvEstimator | None = None,
        bytecard_config: ByteCardConfig | None = None,
        serving_config: ServingConfig | None = None,
        fleet_config: FleetConfig | None = None,
        fallback_tables: tuple[str, ...] = (),
        registry: MetricsRegistry | None = None,
    ):
        self.bundle = bundle
        self.store_dir = str(store_dir)
        self.config = fleet_config or FleetConfig()
        self.serving_config = serving_config or ServingConfig()
        self.bytecard_config = bytecard_config
        self.fallback_count = fallback_count
        self.fallback_ndv = fallback_ndv
        self.fallback_tables = tuple(fallback_tables)
        self.registry = (
            registry if registry is not None else MetricsRegistry(enabled=True)
        )
        # Every dropped-frame reason shows up in exports as an explicit
        # zero from the start -- a swallow that never happened is then
        # distinguishable from one that was never counted.
        if self.registry.enabled:
            self.registry.preregister(
                "fleet_frames_dropped_total", "reason", FRAME_DROP_REASONS
            )
        worker_ids = list(range(self.config.n_workers))
        self.shard_map = ShardMap(
            worker_ids, virtual_nodes=self.config.virtual_nodes
        )
        self._counts_lock = threading.Lock()
        self._counts = {
            "requests": 0,
            "hedges": 0,
            "hedges_wasted": 0,
            "failovers": 0,
            "worker_errors": 0,
            "restarts": 0,
        }
        self._clients_lock = threading.Lock()
        self._clients: dict[int, WorkerClient] = {}
        self._consecutive_failures = {wid: 0 for wid in worker_ids}
        self._restart_counts = {wid: 0 for wid in worker_ids}
        self._closed = threading.Event()
        # Spawn everyone first (warm-starts overlap), then await readiness.
        for wid in worker_ids:
            self._clients[wid] = self._spawn(wid)
        deadline = time.monotonic() + self.config.start_timeout_s
        try:
            for wid in worker_ids:
                remaining = max(0.1, deadline - time.monotonic())
                self._clients[wid].wait_ready(remaining)
        except FleetError:
            for client in self._clients.values():
                client.kill()
            raise
        self._supervisor = threading.Thread(
            target=self._supervise, daemon=True, name="fleet-supervisor"
        )
        self._supervisor.start()

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _spec(self, worker_id: int) -> WorkerSpec:
        return WorkerSpec(
            worker_id=worker_id,
            store_dir=self.store_dir,
            bytecard_config=self.bytecard_config,
            serving_config=self.serving_config,
            fallback_tables=self.fallback_tables,
            handler_threads=self.config.handler_threads,
        )

    def _spawn(self, worker_id: int) -> WorkerClient:
        return WorkerClient(
            self._spec(worker_id),
            self.bundle,
            start_method=self.config.start_method,
            registry=self.registry,
        )

    def _client(self, worker_id: int) -> WorkerClient | None:
        with self._clients_lock:
            return self._clients.get(worker_id)

    def _restart(self, worker_id: int) -> bool:
        """Supervised restart with store re-warm; bounded by max_restarts."""
        with self._clients_lock:
            if self._closed.is_set():
                return False
            if self._restart_counts[worker_id] >= self.config.max_restarts:
                self.registry.counter(
                    "fleet_restarts_exhausted_total", worker=worker_id
                ).inc()
                return False
            self._restart_counts[worker_id] += 1
            old = self._clients.get(worker_id)
        if old is not None:
            old.kill()
        client = self._spawn(worker_id)
        try:
            client.wait_ready(self.config.start_timeout_s)
        except FleetError:
            client.kill()
            self.registry.counter(
                "fleet_restart_failures_total", worker=worker_id
            ).inc()
            return False
        with self._clients_lock:
            if self._closed.is_set():
                client.kill()
                return False
            self._clients[worker_id] = client
            self._consecutive_failures[worker_id] = 0
        self._bump("restarts")
        self.registry.counter(
            "fleet_worker_restarts_total", worker=worker_id
        ).inc()
        return True

    def _supervise(self) -> None:
        """Heartbeat sweep: restart dead workers, hard-restart wedged ones."""
        misses = {wid: 0 for wid in self.shard_map.worker_ids}
        while not self._closed.wait(self.config.heartbeat_interval_s):
            for worker_id in self.shard_map.worker_ids:
                if self._closed.is_set():
                    return
                client = self._client(worker_id)
                if client is None:
                    continue
                if not client.alive:
                    misses[worker_id] = 0
                    self._restart(worker_id)
                    continue
                if client.ping(timeout=self.config.heartbeat_timeout_s):
                    misses[worker_id] = 0
                    continue
                misses[worker_id] += 1
                if misses[worker_id] >= self.config.heartbeat_misses:
                    # Process alive but silent: wedged. Hard-restart.
                    misses[worker_id] = 0
                    client.kill()
                    self._restart(worker_id)

    def _note_failure(self, worker_id: int) -> None:
        """Circuit breaker: consecutive failures force a restart cycle."""
        with self._clients_lock:
            self._consecutive_failures[worker_id] += 1
            tripped = (
                self._consecutive_failures[worker_id]
                >= self.config.failure_threshold
            )
            if tripped:
                self._consecutive_failures[worker_id] = 0
            client = self._clients.get(worker_id) if tripped else None
        if tripped:
            self.registry.counter(
                "fleet_circuit_breaks_total", worker=worker_id
            ).inc()
            if client is not None and client.alive:
                # Kill; the supervisor's next sweep performs the restart.
                client.kill()

    def _note_success(self, worker_id: int) -> None:
        with self._clients_lock:
            self._consecutive_failures[worker_id] = 0

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _bump(self, key: str, amount: int = 1) -> None:
        with self._counts_lock:
            self._counts[key] += amount

    def _hedge_wait_s(self) -> float:
        deadline = self.serving_config.deadline_ms
        if deadline is None:
            return self.config.hedge_timeout_ms / 1000.0
        return deadline * (1.0 + self.config.hedge_fraction) / 1000.0

    def _fallback_fn(self, task: str) -> Callable[[CardQuery], float]:
        if task == "count":
            return self.fallback_count.estimate_count
        if self.fallback_ndv is not None:
            return self.fallback_ndv.estimate_ndv

        def no_ndv_fallback(_query: CardQuery) -> float:
            raise EstimationError("fleet has no NDV fallback estimator")

        return no_ndv_fallback

    def _finish(
        self,
        task: str,
        value: float,
        source: str,
        worker_id: int,
        start: float,
        hedged: bool = False,
        failover: bool = False,
    ) -> FleetEstimate:
        latency = time.perf_counter() - start
        self.registry.histogram("fleet_latency_seconds", task=task).observe(
            latency
        )
        return FleetEstimate(
            value=float(value),
            source=source,
            worker=worker_id,
            latency_s=latency,
            hedged=hedged,
            failover=failover,
        )

    def _dispatch(self, task: str, query: CardQuery) -> FleetEstimate:
        start = time.perf_counter()
        self._bump("requests")
        self.registry.counter("fleet_requests_total", task=task).inc()
        owner = self.shard_map.owner_for_tables(query.tables)
        fallback = self._fallback_fn(task)
        client = self._client(owner)
        if client is None or not client.alive:
            self._bump("failovers")
            self.registry.counter(
                "fleet_failovers_total", reason="worker-down"
            ).inc()
            return self._finish(
                task, fallback(query), "fallback-failover", owner, start,
                failover=True,
            )
        try:
            req_id, future = client.submit_estimate(task, query)
        except WorkerDied:
            self._note_failure(owner)
            self._bump("failovers")
            self.registry.counter(
                "fleet_failovers_total", reason="submit"
            ).inc()
            return self._finish(
                task, fallback(query), "fallback-failover", owner, start,
                failover=True,
            )
        try:
            payload = future.result(timeout=self._hedge_wait_s())
        except FutureTimeoutError:
            self._bump("hedges")
            self.registry.counter("fleet_hedges_total", task=task).inc()
            hedge_value = fallback(query)
            if future.done():
                # The worker's reply landed while the hedge was computed:
                # prefer it (it is the learned estimate), count the waste.
                try:
                    payload = future.result()
                except Exception:
                    # The late reply was an error frame; it is discarded in
                    # favor of the hedge -- count the drop, don't hide it.
                    self.registry.counter(
                        "fleet_frames_dropped_total", reason="late-reply"
                    ).inc()
                    self._note_failure(owner)
                    self._bump("worker_errors")
                    return self._finish(
                        task, hedge_value, "fallback-hedge", owner, start,
                        hedged=True,
                    )
                self._note_success(owner)
                self._bump("hedges_wasted")
                value, source, _wlat = payload
                return self._finish(
                    task, value, source, owner, start, hedged=True
                )
            client.abandon(req_id)
            self._note_failure(owner)
            return self._finish(
                task, hedge_value, "fallback-hedge", owner, start, hedged=True
            )
        except WorkerDied:
            self._note_failure(owner)
            self._bump("failovers")
            self.registry.counter(
                "fleet_failovers_total", reason="died"
            ).inc()
            return self._finish(
                task, fallback(query), "fallback-failover", owner, start,
                failover=True,
            )
        except Exception:
            # Worker-side estimation error ("err" frame): degrade locally.
            self._note_failure(owner)
            self._bump("worker_errors")
            self.registry.counter(
                "fleet_worker_errors_total", task=task
            ).inc()
            return self._finish(
                task, fallback(query), "fallback-error", owner, start
            )
        self._note_success(owner)
        value, source, _wlat = payload
        return self._finish(task, value, source, owner, start)

    # ------------------------------------------------------------------
    # Estimator interface
    # ------------------------------------------------------------------
    def estimate_count_detail(self, query: CardQuery) -> FleetEstimate:
        return self._dispatch("count", query)

    def estimate_count(self, query: CardQuery) -> float:
        return self._dispatch("count", query).value

    def estimate_ndv_detail(self, query: CardQuery) -> FleetEstimate:
        return self._dispatch("ndv", query)

    def estimate_ndv(self, query: CardQuery) -> float:
        return self._dispatch("ndv", query).value

    def owner_of(self, query: CardQuery) -> int:
        """The shard owner this query routes to (diagnostics and tests)."""
        return self.shard_map.owner_for_tables(query.tables)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> FleetStats:
        with self._counts_lock:
            return FleetStats(**self._counts)

    def worker_infos(self) -> dict[int, dict | None]:
        """Per-worker ready announcements (pid, model count)."""
        with self._clients_lock:
            clients = dict(self._clients)
        return {wid: client.ready_info for wid, client in sorted(clients.items())}

    def metrics_states(self, timeout: float = 2.0) -> dict[str, list]:
        """Registry snapshots by process identity: the merge protocol's
        input -- the router's own state plus one fetched per live worker."""
        states: dict[str, list] = {"router": self.registry.state()}
        with self._clients_lock:
            clients = sorted(self._clients.items())
        for worker_id, client in clients:
            if not client.alive:
                continue
            try:
                states[str(worker_id)] = client.fetch_metrics(timeout)
            except Exception:
                # A worker whose snapshot frame never arrived is simply
                # absent from the merge; the counter records the gap.
                self.registry.counter(
                    "fleet_frames_dropped_total", reason="metrics"
                ).inc()
                continue
        return states

    def metrics_registry(self) -> MetricsRegistry:
        """One fleet-wide registry, every series labeled by ``worker``."""
        return merged_registry(self.metrics_states())

    def metrics_text(self) -> str:
        """Prometheus-style text export of the merged fleet registry."""
        return export_text(self.metrics_registry())

    def metrics_json(self) -> dict:
        """Structured JSON export of the merged fleet registry."""
        return export_json(self.metrics_registry())

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self, timeout: float | None = None) -> bool:
        """Bounded fleet teardown: drain every worker, then reap.

        Returns ``True`` when every worker acknowledged a graceful drain
        within the budget (``fleet_config.shutdown_timeout_s`` when
        ``timeout`` is ``None``).
        """
        if self._closed.is_set():
            return True
        self._closed.set()
        self._supervisor.join(
            timeout=self.config.heartbeat_interval_s
            + self.config.heartbeat_timeout_s
            + 1.0
        )
        budget = (
            timeout if timeout is not None else self.config.shutdown_timeout_s
        )
        with self._clients_lock:
            clients = sorted(self._clients.items())
        deadline = time.monotonic() + budget
        clean = True
        for _worker_id, client in clients:
            remaining = max(0.5, deadline - time.monotonic())
            clean &= client.shutdown(remaining)
        return clean

    def __enter__(self) -> "FleetRouter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
