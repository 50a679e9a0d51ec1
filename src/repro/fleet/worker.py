"""The fleet worker: one process, one EstimationService, a frame loop.

A worker is the fleet's unit of isolation.  It warm-starts a full
:class:`~repro.core.bytecard.ByteCard` from the crash-safe artifact store
(**zero training** -- the parent persisted its registry before spawning),
mirrors the parent's monitor verdicts (``fallback_tables``), and then
serves frames through ``bytecard.serve()`` -- the same
:class:`~repro.serving.service.EstimationService` pipeline the in-process
optimizer calls, bound to a frame-based IPC loop instead of direct method
calls.  Identical models plus the identical pipeline is what makes fleet
estimates bit-identical to single-process serving.

Estimate requests are dispatched to a small handler pool so the loop keeps
answering pings (the router's liveness signal) while inference runs;
``ping``/``metrics``/``shutdown`` are answered inline.  Shutdown reuses the
service's drain-ordered bounded close, then acknowledges with ``bye`` so
the router can tell a graceful exit from a crash (EOF without ``bye``).
"""

from __future__ import annotations

import multiprocessing
import os
import socket
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.core.bytecard import ByteCard
from repro.core.config import ByteCardConfig
from repro.datasets.base import DatasetBundle
from repro.errors import ConnectionClosed, EstimationError
from repro.fleet.protocol import DEADLINE_FROM_CONFIG, FrameConnection
from repro.serving.config import ServingConfig
from repro.serving.service import _UNSET

__all__ = ["WorkerSpec", "worker_main", "spawn_worker"]


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker needs besides the (fork-inherited) bundle."""

    worker_id: int
    store_dir: str
    bytecard_config: ByteCardConfig | None = None
    serving_config: ServingConfig | None = None
    #: the parent's monitor verdicts, mirrored so a gated table degrades to
    #: the traditional estimator in the worker exactly as it would in the
    #: parent (the worker itself never runs the monitor)
    fallback_tables: tuple[str, ...] = field(default_factory=tuple)
    #: concurrent IPC estimate handlers feeding the service's own pool
    handler_threads: int = 4


def worker_main(
    spec: WorkerSpec, bundle: DatasetBundle, sock: socket.socket
) -> None:
    """Process entry point: warm-start, announce, serve frames until EOF."""
    conn = FrameConnection(sock)
    try:
        bytecard = ByteCard.from_store(
            bundle,
            spec.store_dir,
            config=spec.bytecard_config,
            run_monitor=False,
        )
        for table in spec.fallback_tables:
            bytecard.set_fallback(table, True)
        service = bytecard.serve(spec.serving_config)
    except Exception as exc:
        try:
            conn.send("fatal", 0, f"{type(exc).__name__}: {exc}")
        except Exception:
            pass
        conn.close()
        return
    try:
        conn.send(
            "ready",
            0,
            {
                "worker_id": spec.worker_id,
                "pid": os.getpid(),
                "models": len(bytecard.loader.loaded_keys()),
            },
        )
    except ConnectionClosed:
        conn.close()
        return

    def handle_estimate(req_id: int, task: str, query, deadline_token) -> None:
        try:
            deadline = (
                _UNSET if deadline_token == DEADLINE_FROM_CONFIG else deadline_token
            )
            if task == "count":
                served = service.estimate_count_detail(query, deadline)
            elif task == "ndv":
                served = service.estimate_ndv_detail(query, deadline)
            else:
                raise EstimationError(f"unknown estimation task {task!r}")
            conn.send(
                "res", req_id, (served.value, served.source, served.latency_s)
            )
        except ConnectionClosed:
            pass
        except Exception as exc:
            try:
                conn.send("err", req_id, f"{type(exc).__name__}: {exc}")
            except ConnectionClosed:
                pass

    handlers = ThreadPoolExecutor(
        max_workers=spec.handler_threads,
        thread_name_prefix=f"fleet-w{spec.worker_id}",
    )
    try:
        while True:
            try:
                kind, req_id, payload = conn.recv()
            except ConnectionClosed:
                # Router gone (crash or hard close): drain quickly and exit.
                service.close(timeout=0.5)
                break
            if kind == "est":
                task, query, deadline_token = payload
                handlers.submit(handle_estimate, req_id, task, query, deadline_token)
            elif kind == "ping":
                try:
                    conn.send("pong", req_id, None)
                except ConnectionClosed:
                    break
            elif kind == "metrics":
                try:
                    conn.send("metrics_res", req_id, bytecard.obs.state())
                except ConnectionClosed:
                    break
            elif kind == "shutdown":
                # Bounded drain: in-flight estimates finish (or degrade via
                # the service's cancel path); handler threads unblock either
                # way, so the pool's exit join below cannot hang.
                service.close(timeout=payload)
                try:
                    conn.send("bye", req_id, None)
                except ConnectionClosed:
                    pass
                break
            # unknown frame kinds are ignored (forward compatibility)
    finally:
        handlers.shutdown(wait=False, cancel_futures=True)
        conn.close()


def spawn_worker(
    spec: WorkerSpec, bundle: DatasetBundle, start_method: str = "fork"
) -> tuple[multiprocessing.process.BaseProcess, FrameConnection]:
    """Fork one worker process; return its handle and the parent-side pipe.

    ``fork`` shares the parent's dataset bundle copy-on-write -- nothing is
    pickled at spawn time and startup cost is the store warm-start alone.
    The child end of the socketpair is *closed without shutdown* in the
    parent (a ``shutdown()`` would tear down the shared connection), so a
    worker death surfaces to the router as a clean EOF.
    """
    ctx = multiprocessing.get_context(start_method)
    parent_sock, child_sock = socket.socketpair()
    process = ctx.Process(
        target=worker_main,
        args=(spec, bundle, child_sock),
        daemon=True,
        name=f"fleet-worker-{spec.worker_id}",
    )
    process.start()
    child_sock.close()
    return process, FrameConnection(parent_sock)
