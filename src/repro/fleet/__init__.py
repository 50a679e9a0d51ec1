"""repro.fleet -- the multi-process serving fleet.

Scales the serving tier past one interpreter: ``N`` estimator worker
processes, each warm-started from the crash-safe artifact store with
**zero training** and owning a consistent-hash shard of the (table, model)
space, behind a router that hedges slow requests, fails over around dead
workers, and supervises restarts with store re-warm.  The pipeline inside
every worker is the *same* :class:`~repro.serving.service.EstimationService`
the in-process optimizer calls -- estimates are bit-identical across both
transports.

* :mod:`repro.fleet.router`   -- sharded dispatch, hedging, supervision,
  merged fleet-wide metrics;
* :mod:`repro.fleet.worker`   -- the worker process: store warm-start +
  EstimationService behind a frame loop;
* :mod:`repro.fleet.client`   -- the router's per-worker multiplexer with
  edge-triggered death detection;
* :mod:`repro.fleet.sharding` -- the SHA-1 consistent-hash ring;
* :mod:`repro.fleet.protocol` -- length-prefixed pickle frames;
* :mod:`repro.fleet.config`   -- the fleet's tunables.

Entry point: :meth:`repro.core.bytecard.ByteCard.fleet`.
"""

from repro.fleet.client import WorkerClient
from repro.fleet.config import FleetConfig
from repro.fleet.protocol import (
    DEADLINE_FROM_CONFIG,
    MAX_FRAME_BYTES,
    FrameConnection,
)
from repro.fleet.router import FleetEstimate, FleetRouter, FleetStats
from repro.fleet.sharding import ShardMap
from repro.fleet.worker import WorkerSpec, spawn_worker, worker_main

__all__ = [
    "DEADLINE_FROM_CONFIG",
    "FleetConfig",
    "FleetEstimate",
    "FleetRouter",
    "FleetStats",
    "FrameConnection",
    "MAX_FRAME_BYTES",
    "ShardMap",
    "WorkerClient",
    "WorkerSpec",
    "spawn_worker",
    "worker_main",
]
