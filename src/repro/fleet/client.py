"""The router's handle to one worker process.

A :class:`WorkerClient` owns the process handle and the parent end of its
frame connection, and multiplexes concurrent requests over it: every
outbound frame gets a ``req_id``, a receiver thread resolves the matching
:class:`~concurrent.futures.Future` when the reply arrives (replies are
out of order by design -- pings overtake estimates).

Death detection is edge-triggered and total: the receiver thread sees EOF
(or a fatal frame) the moment the worker exits for any reason, marks the
client dead, and fails **every** pending future with
:class:`~repro.errors.WorkerDied` -- so a request in flight on a killed
worker surfaces immediately to the router's failover path instead of
waiting out a timeout.
"""

from __future__ import annotations

import itertools
import threading
from concurrent.futures import Future

from repro.datasets.base import DatasetBundle
from repro.errors import ConnectionClosed, FleetError, WorkerDied
from repro.fleet.protocol import DEADLINE_FROM_CONFIG
from repro.fleet.worker import WorkerSpec, spawn_worker
from repro.obs.metrics import MetricsRegistry

__all__ = ["WorkerClient", "FRAME_DROP_REASONS"]

#: every way a frame can be dropped on the parent side, pre-registered so
#: the export shows explicit zeros (a silent swallow is exactly what the
#: ``fleet_frames_dropped_total`` counter exists to expose)
FRAME_DROP_REASONS = (
    "desync",
    "undecodable",
    "unknown-kind",
    "abandoned",
    "ping",
    "metrics",
)


class WorkerClient:
    """Request multiplexer and lifecycle handle for one fleet worker."""

    def __init__(
        self,
        spec: WorkerSpec,
        bundle: DatasetBundle,
        start_method: str = "fork",
        registry: MetricsRegistry | None = None,
    ):
        self.spec = spec
        self.worker_id = spec.worker_id
        self.registry = (
            registry if registry is not None else MetricsRegistry(enabled=False)
        )
        self.process, self.conn = spawn_worker(spec, bundle, start_method)
        self._lock = threading.Lock()
        self._pending: dict[int, Future] = {}
        self._req_ids = itertools.count(1)
        self.ready = threading.Event()
        self.ready_info: dict | None = None
        self.dead = threading.Event()
        self.fatal_error: str | None = None
        self._receiver = threading.Thread(
            target=self._receive_loop,
            daemon=True,
            name=f"fleet-client-{spec.worker_id}",
        )
        self._receiver.start()

    # ------------------------------------------------------------------
    # Receiver
    # ------------------------------------------------------------------
    def _receive_loop(self) -> None:
        while True:
            try:
                kind, req_id, payload = self.conn.recv()
            except ConnectionClosed:
                break  # normal EOF: the worker exited
            except FleetError:
                # Oversized/garbled frame: the stream is desynchronized and
                # nothing after it can be trusted -- count it and give up.
                self._count_drop("desync")
                break
            except Exception:  # pragma: no cover - defensive: bad frame
                self._count_drop("undecodable")
                break
            if kind == "ready":
                self.ready_info = payload
                self.ready.set()
            elif kind == "fatal":
                self.fatal_error = str(payload)
                break
            elif kind == "err":
                future = self._pop_pending(req_id)
                if future is not None and not future.done():
                    future.set_exception(FleetError(str(payload)))
            elif kind in ("res", "pong", "metrics_res", "bye"):
                future = self._pop_pending(req_id)
                if future is None:
                    # Nobody is waiting: an abandoned (hedged-away) request's
                    # late reply, or a reply to a request that already died.
                    self._count_drop("abandoned")
                elif not future.done():
                    future.set_result(payload)
            else:
                # Unknown frame kinds are tolerated (forward compatibility)
                # but never silently: the counter is the paper trail.
                self._count_drop("unknown-kind")
        self._mark_dead()

    def _count_drop(self, reason: str) -> None:
        self.registry.counter(
            "fleet_frames_dropped_total", reason=reason
        ).inc()

    def _pop_pending(self, req_id: int) -> Future | None:
        with self._lock:
            return self._pending.pop(req_id, None)

    def _mark_dead(self) -> None:
        with self._lock:
            pending, self._pending = self._pending, {}
        self.dead.set()
        # Unblock ready-waiters too; wait_ready re-checks dead/fatal.
        self.ready.set()
        reason = self.fatal_error or "connection lost"
        for future in pending.values():
            if not future.done():
                future.set_exception(
                    WorkerDied(f"worker {self.worker_id}: {reason}")
                )

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        return not self.dead.is_set() and self.process.is_alive()

    def wait_ready(self, timeout: float | None = None) -> dict:
        """Block until the worker announced warm-start completion."""
        if not self.ready.wait(timeout):
            raise FleetError(
                f"worker {self.worker_id} not ready within {timeout}s"
            )
        if self.fatal_error is not None:
            raise FleetError(
                f"worker {self.worker_id} failed to start: {self.fatal_error}"
            )
        if self.dead.is_set():
            raise FleetError(f"worker {self.worker_id} died during startup")
        assert self.ready_info is not None
        return self.ready_info

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def _submit(self, kind: str, payload: object) -> tuple[int, Future]:
        future: Future = Future()
        future.set_running_or_notify_cancel()
        with self._lock:
            if self.dead.is_set():
                raise WorkerDied(f"worker {self.worker_id} is dead")
            req_id = next(self._req_ids)
            self._pending[req_id] = future
        try:
            self.conn.send(kind, req_id, payload)
        except ConnectionClosed as exc:
            self._pop_pending(req_id)
            raise WorkerDied(f"worker {self.worker_id}: {exc}") from exc
        return req_id, future

    def submit_estimate(
        self, task: str, query, deadline_token=DEADLINE_FROM_CONFIG
    ) -> tuple[int, Future]:
        """Dispatch one estimate; the future resolves to the ``res`` tuple
        ``(value, source, latency_s)``."""
        return self._submit("est", (task, query, deadline_token))

    def abandon(self, req_id: int) -> None:
        """Forget a hedged-away request; a late reply is dropped silently."""
        self._pop_pending(req_id)

    def ping(self, timeout: float) -> bool:
        try:
            _req_id, future = self._submit("ping", None)
            future.result(timeout)
            return True
        except Exception:
            # A ping that never resolves is a dropped health frame: the
            # caller only sees False, so leave an audit trail here.
            self._count_drop("ping")
            return False

    def fetch_metrics(self, timeout: float) -> list:
        """The worker's :meth:`MetricsRegistry.state` snapshot."""
        _req_id, future = self._submit("metrics", None)
        return future.result(timeout)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def shutdown(self, timeout: float) -> bool:
        """Graceful bounded stop: drain request, ``bye`` ack, then join --
        escalating to terminate/kill so a wedged worker cannot hang us."""
        clean = False
        if not self.dead.is_set():
            # Give the worker most of the budget for its internal drain,
            # keeping headroom to observe the ack and reap the process.
            drain = max(0.1, timeout * 0.6)
            try:
                _req_id, future = self._submit("shutdown", drain)
                future.result(max(0.1, timeout * 0.8))
                clean = True
            except Exception:
                pass
        self.process.join(timeout=max(0.1, timeout * 0.2))
        if self.process.is_alive():
            clean = False
            self.process.terminate()
            self.process.join(timeout=1.0)
            if self.process.is_alive():  # pragma: no cover - last resort
                self.process.kill()
                self.process.join(timeout=1.0)
        self.conn.close()
        self._mark_dead()
        return clean

    def kill(self) -> None:
        """Hard-kill the process (fault injection, wedged-worker restart)."""
        if self.process.is_alive():
            self.process.kill()
        self.process.join(timeout=5.0)
        self.conn.close()
        self._mark_dead()
