"""Configuration knobs of the estimation service.

Defaults mirror the paper's deployment envelope: a few-millisecond
inference budget per estimate (Section 5.1 reports sub-5ms inference after
``initContext``), small micro-batches (estimation traffic is bursty but
individual estimates are cheap), and a bounded admission queue so a traffic
spike degrades to the traditional estimator instead of queueing without
bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SchemaError


@dataclass(frozen=True)
class ServingConfig:
    """Tunables of :class:`repro.serving.service.EstimationService`."""

    #: per-request wall-clock budget in milliseconds; ``None`` disables the
    #: deadline (every request waits for the learned estimate).
    deadline_ms: float | None = 5.0
    #: serve repeated fingerprints from the estimate cache
    enable_cache: bool = True
    #: maximum number of cached estimates (LRU beyond this)
    cache_entries: int = 4096
    #: group concurrent same-table COUNT requests into one inference pass
    enable_batching: bool = True
    #: extend micro-batching to join COUNT queries sharing a table set
    #: (only used when the estimator advertises ``supports_join_batching``)
    enable_join_batching: bool = True
    #: most requests one micro-batch takes from those queued behind the
    #: previous batch of their key (batches form from load, not a timer)
    max_batch_size: int = 16
    #: worker threads evaluating learned estimates for requests that carry
    #: a deadline (deadline-free requests compute on their caller's thread)
    num_workers: int = 4
    #: admission bound: requests admitted beyond the workers; a full queue
    #: rejects to the traditional estimator instead of growing
    queue_capacity: int = 64
    #: latency samples kept for the quantile snapshot (ring buffer)
    latency_window: int = 4096

    def __post_init__(self) -> None:
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise SchemaError("deadline_ms must be positive or None")
        if self.cache_entries < 1:
            raise SchemaError("cache_entries must be >= 1")
        if self.max_batch_size < 1:
            raise SchemaError("max_batch_size must be >= 1")
        if self.num_workers < 1:
            raise SchemaError("num_workers must be >= 1")
        if self.queue_capacity < 0:
            raise SchemaError("queue_capacity must be >= 0")
        if self.latency_window < 1:
            raise SchemaError("latency_window must be >= 1")
