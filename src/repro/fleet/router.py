"""The fleet router: sharded dispatch, hedging, and worker supervision.

:class:`FleetRouter` is the fleet's front door and the optimizer's drop-in
estimator (:class:`CountEstimator` / :class:`NdvEstimator`): a request is
fingerprinted to its shard owner on the consistent-hash ring, dispatched
over the owner's frame connection, and answered from the worker's
:class:`~repro.serving.service.EstimationService` -- the same pipeline, caches
and degradation contract as in-process serving, so values are
bit-identical to a single-process :class:`EstimationService` over the same
store.

What the router adds is *fault tolerance around processes*:

* **hedging** -- a worker answers within its serving deadline (its service
  degrades internally), so the router waits ``deadline * (1 +
  HEDGE_FRACTION)`` and then abandons the request and answers it from the
  traditional fallback locally.  A late reply is dropped by the client,
  never double-answered.
* **failover** -- a dead worker (EOF mid-request, failed submit) degrades
  the request to the local traditional estimator immediately; no request
  is lost.
* **supervision** -- a heartbeat thread pings every worker; a dead or
  wedged (``heartbeat_misses`` silent pings) worker is restarted and
  re-warmed from the artifact store, up to ``max_restarts`` times.  EOF
  and the heartbeat are the only restart triggers: a hedge or an ``err``
  frame degrades that one request and never touches the worker.

Plans over the fleet are memoized per worker **incarnation**, which every
supervised restart bumps (:meth:`FleetRouter.cache_key`).  Each routed
request is counted once, in the router's own always-on ``fleet_*_total``
counters, which an enabled registry adopts for export and
:meth:`FleetRouter.stats` reads.

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
from repro.errors import FleetError, WorkerDied
from repro.estimators.base import CountEstimator, NdvEstimator
from repro.fleet.client import FRAME_DROP_REASONS, WorkerClient
from repro.fleet.config import FleetConfig
from repro.fleet.sharding import ShardMap
from repro.fleet.worker import WorkerSpec
from repro.obs import export_json, export_text, merged_registry
from repro.obs.metrics import Counter, Histogram, MetricsRegistry
from repro.serving.config import ServingConfig
from repro.sql.query import CardQuery

__all__ = ["FleetRouter", "FleetEstimate", "FleetStats"]

#: slack fraction of the serving deadline the router grants on top of it
#: before hedging: a worker answers within its own deadline (it degrades
#: internally), so a hedge fires only on transport/process trouble
HEDGE_FRACTION = 0.5

#: the tasks a router dispatches (``fleet_*_total{task}``)
TASKS = ("count", "ndv")
#: why a request failed over (``fleet_failovers_total{reason}``): the owner
#: was down, refused the submit, or died with the request in flight
FAILOVER_REASONS = ("worker-down", "submit", "died")


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

    @property
    def degraded(self) -> bool:
        return self.source.startswith("fallback")

    @property
    def hedged(self) -> bool:
        """The hedge timer fired and the router answered locally."""
        return self.source == "fallback-hedge"

    @property
    def failover(self) -> bool:
        """The owner was unusable and the router answered locally."""
        return self.source == "fallback-failover"


@dataclass(frozen=True)
class FleetStats:
    """Router-level counters (worker-side serving stats live in metrics)."""

    requests: int = 0
    hedges: int = 0
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
        fallback_ndv: NdvEstimator,
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
        self._requests = self._owned(Counter, "fleet_requests_total", "task", TASKS)
        self._hedges = self._owned(Counter, "fleet_hedges_total", "task", TASKS)
        self._worker_errors = self._owned(
            Counter, "fleet_worker_errors_total", "task", TASKS
        )
        self._failovers = self._owned(
            Counter, "fleet_failovers_total", "reason", FAILOVER_REASONS
        )
        self._restarts = self._owned(
            Counter, "fleet_worker_restarts_total", "worker", worker_ids
        )
        self._latency = self._owned(
            Histogram, "fleet_latency_seconds", "task", TASKS
        )
        self._clients_lock = threading.Lock()
        self._clients: dict[int, WorkerClient] = {}
        self._restart_counts = {wid: 0 for wid in worker_ids}
        #: bumped by every supervised restart; names the models the
        #: workers hold (see :meth:`cache_key`)
        self._incarnation = 0
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

    def _owned(self, cls, name: str, label: str, values) -> dict:
        """One always-on metric per label value, keyed by the value and
        adopted by the registry for export."""
        metrics = {value: cls(name, ((label, str(value)),)) for value in values}
        for metric in metrics.values():
            self.registry.adopt(metric)
        return metrics

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
        """Supervised restart with store re-warm; bounded by max_restarts.

        The new worker re-reads the store, so the router's incarnation is
        bumped in the same ``_clients_lock`` section that installs it: no
        :meth:`_client` caller sees the new worker under the old
        :meth:`cache_key`.
        """
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
            self._incarnation += 1
            self._clients[worker_id] = client
        self._restarts[worker_id].inc()
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

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _hedge_wait_s(self) -> float:
        deadline = self.serving_config.deadline_ms
        if deadline is None:
            return self.config.hedge_timeout_ms / 1000.0
        return deadline * (1.0 + HEDGE_FRACTION) / 1000.0

    def _fallback_fn(self, task: str) -> Callable[[CardQuery], float]:
        if task == "count":
            return self.fallback_count.estimate_count
        return self.fallback_ndv.estimate_ndv

    def _finish(
        self,
        task: str,
        value: float,
        source: str,
        worker_id: int,
        start: float,
    ) -> FleetEstimate:
        latency = time.perf_counter() - start
        self._latency[task].observe(latency)
        return FleetEstimate(
            value=float(value),
            source=source,
            worker=worker_id,
            latency_s=latency,
        )

    def _failover(
        self,
        task: str,
        query: CardQuery,
        owner: int,
        start: float,
        reason: str,
    ) -> FleetEstimate:
        """The owner is unusable (``reason``): answer locally."""
        self._failovers[reason].inc()
        value = self._fallback_fn(task)(query)
        return self._finish(task, value, "fallback-failover", owner, start)

    def _dispatch(self, task: str, query: CardQuery) -> FleetEstimate:
        start = time.perf_counter()
        self._requests[task].inc()
        owner = self.shard_map.owner_for_tables(query.tables)
        client = self._client(owner)
        if client is None or not client.alive:
            return self._failover(task, query, owner, start, "worker-down")
        try:
            req_id, future = client.submit_estimate(task, query)
        except WorkerDied:
            return self._failover(task, query, owner, start, "submit")
        fallback = self._fallback_fn(task)
        try:
            payload = future.result(timeout=self._hedge_wait_s())
        except FutureTimeoutError:
            # Slow is not dead: only this request degrades; the client
            # drops the late reply.
            client.abandon(req_id)
            self._hedges[task].inc()
            return self._finish(
                task, fallback(query), "fallback-hedge", owner, start
            )
        except WorkerDied:
            return self._failover(task, query, owner, start, "died")
        except FleetError:
            # Worker-side estimation error ("err" frame): degrade locally.
            self._worker_errors[task].inc()
            return self._finish(
                task, fallback(query), "fallback-error", owner, start
            )
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

    def cache_key(self, task: str, query: CardQuery) -> tuple:
        """The workers' incarnation, for every task.

        A worker loads its models from the store once, at spawn, so its
        answers change only when a restart hands its shard to a new
        process, and every restart bumps the incarnation first.  A plan
        memoized under one incarnation is therefore never served after a
        restart; while a worker is down, a hit serves what the last
        incarnation planned (a miss fails over and is never stored).
        """
        return (self._incarnation,)

    def owner_of(self, query: CardQuery) -> int:
        """The shard owner this query routes to (diagnostics and tests)."""
        return self.shard_map.owner_for_tables(query.tables)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> FleetStats:
        def total(counters: dict) -> int:
            return int(sum(counter.value for counter in counters.values()))

        return FleetStats(
            requests=total(self._requests),
            hedges=total(self._hedges),
            failovers=total(self._failovers),
            worker_errors=total(self._worker_errors),
            restarts=total(self._restarts),
        )

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
