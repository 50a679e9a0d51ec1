"""Tunables of the multi-process serving fleet.

Defaults target the paper's deployment shape: a handful of estimator
processes behind one router, millisecond-scale serving deadlines enforced
*inside* each worker (its :class:`~repro.serving.core.EstimationCore`
degrades to the traditional estimator on its own), and a router whose
hedging exists to survive *process* failures -- a worker that is dead,
wedged, or unreachable -- rather than slow models.  A hedge degrades only
its own request; only EOF and ``heartbeat_misses`` silent pings restart a
worker.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SchemaError


@dataclass(frozen=True)
class FleetConfig:
    """Tunables of :class:`repro.fleet.router.FleetRouter`."""

    #: estimator worker processes (each owns a consistent-hash shard)
    n_workers: int = 2
    #: virtual nodes per worker on the consistent-hash ring; more nodes
    #: smooth the shard balance, at O(n_workers * virtual_nodes) ring size
    virtual_nodes: int = 64
    #: router-side wait before hedging when the serving deadline is None
    #: (the worker never self-degrades on time, so the router needs its
    #: own absolute budget), milliseconds
    hedge_timeout_ms: float = 250.0
    #: seconds between supervisor heartbeat sweeps
    heartbeat_interval_s: float = 0.25
    #: per-ping reply budget, seconds
    heartbeat_timeout_s: float = 1.0
    #: consecutive missed heartbeats before the worker is declared wedged
    #: and hard-restarted
    heartbeat_misses: int = 4
    #: lifetime restart budget per worker; beyond it the shard serves from
    #: the router's local fallback permanently
    max_restarts: int = 5
    #: request-handler threads inside each worker (concurrent IPC requests
    #: feeding the worker's own EstimationCore pool)
    handler_threads: int = 4
    #: budget for every worker to warm-start from the store and report
    #: ready, seconds
    start_timeout_s: float = 120.0
    #: default budget for :meth:`FleetRouter.close`, seconds
    shutdown_timeout_s: float = 10.0
    #: multiprocessing start method; ``fork`` shares the parent's dataset
    #: bundle copy-on-write instead of pickling it per worker
    start_method: str = "fork"

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise SchemaError("n_workers must be >= 1")
        if self.virtual_nodes < 1:
            raise SchemaError("virtual_nodes must be >= 1")
        if self.hedge_timeout_ms <= 0:
            raise SchemaError("hedge_timeout_ms must be positive")
        if self.heartbeat_interval_s <= 0:
            raise SchemaError("heartbeat_interval_s must be positive")
        if self.heartbeat_timeout_s <= 0:
            raise SchemaError("heartbeat_timeout_s must be positive")
        if self.heartbeat_misses < 1:
            raise SchemaError("heartbeat_misses must be >= 1")
        if self.max_restarts < 0:
            raise SchemaError("max_restarts must be >= 0")
        if self.handler_threads < 1:
            raise SchemaError("handler_threads must be >= 1")
        if self.start_timeout_s <= 0:
            raise SchemaError("start_timeout_s must be positive")
        if self.shutdown_timeout_s <= 0:
            raise SchemaError("shutdown_timeout_s must be positive")
