"""The micro-batcher: one inference pass for concurrent same-key requests.

Single-table COUNT estimates against the same BN repeat the identical
variable-elimination setup (evidence construction, topological message
scheduling); :class:`MicroBatcher` answers requests that pile up behind a
running inference pass with **one** batched sum-product pass
(:meth:`TreeBayesNet.selectivities`), amortizing that setup the way the
paper's Inference Engine amortizes ``initContext``.

The protocol is work-conserving: at most one batch per key executes at a
time.  A request that finds its key idle executes at once, alone, on its
own thread.  Requests arriving while a batch runs queue up; the moment the
key frees, the first ``max_batch_size`` of them become the next batch, led
(executed) by the first.  Batches therefore form from load, never from a
timer: a lone client pays exactly what the model costs.

Batches are grouped by ``key_fn(query)``: the default keys on the query's
single table, and the serving tier passes a key function that also groups
*join* queries sharing a table set, so their shared-belief plans are primed
by batched BN passes (see
:meth:`FactorJoinEstimator.estimate_join_batch`).
"""

from __future__ import annotations

import threading
from typing import Callable

from repro.errors import EstimationError
from repro.sql.query import CardQuery

#: ``batch_fn(key, queries) -> list[float]`` aligned with the input order
BatchFn = Callable[[str, list[CardQuery]], list[float]]


def default_batch_key(query: CardQuery) -> str:
    """The original same-table grouping: the query's (single) first table."""
    return query.tables[0]


class _Item:
    __slots__ = ("query", "value", "error", "batch", "wake")

    def __init__(self, query: CardQuery):
        self.query = query
        self.value: float | None = None
        self.error: BaseException | None = None
        #: set (before ``wake``) when this item must lead that batch
        self.batch: list[_Item] | None = None
        #: answered (value/error) or promoted to leader (batch)
        self.wake = threading.Event()

    def settle(
        self, value: float | None = None, error: BaseException | None = None
    ) -> None:
        self.value, self.error = value, error
        self.wake.set()


class MicroBatcher:
    """Groups COUNT requests that queue behind a running batch of their key."""

    def __init__(
        self,
        batch_fn: BatchFn,
        max_batch_size: int = 16,
        on_batch: Callable[[int], None] | None = None,
        key_fn: Callable[[CardQuery], str] | None = None,
    ):
        """``on_batch(occupancy)`` is invoked once per executed batch."""
        self.batch_fn = batch_fn
        self.max_batch_size = max_batch_size
        self.on_batch = on_batch
        self.key_fn = key_fn if key_fn is not None else default_batch_key
        self._lock = threading.Lock()
        #: a key is present exactly while one of its batches executes; the
        #: list holds the requests queued behind that batch
        self._pending: dict[str, list[_Item]] = {}
        self._closed = False

    # ------------------------------------------------------------------
    def estimate(self, query: CardQuery) -> float:
        """Blocking estimate through the batcher."""
        key = self.key_fn(query)
        item = _Item(query)
        with self._lock:
            if self._closed:
                raise EstimationError("micro-batcher is closed")
            queue = self._pending.get(key)
            if queue is None:
                self._pending[key] = []
                item.batch = [item]
            else:
                queue.append(item)
        if item.batch is None:
            item.wake.wait()
        if item.batch is not None:
            self._execute(key, item.batch)
        if item.error is not None:
            raise item.error
        assert item.value is not None
        return item.value

    def _execute(self, key: str, batch: list[_Item]) -> None:
        """Run one batch, free the key for the first queued request, answer."""
        error: BaseException | None = None
        try:
            values = self.batch_fn(key, [i.query for i in batch])
            if len(values) != len(batch):
                raise RuntimeError(
                    f"batch_fn returned {len(values)} values for a "
                    f"batch of {len(batch)}"
                )
        except BaseException as exc:
            error = exc
        with self._lock:
            queue = self._pending.get(key)
            following = None
            if queue:
                following = queue[: self.max_batch_size]
                del queue[: self.max_batch_size]
            elif queue is not None:
                del self._pending[key]
        if following:
            following[0].batch = following
            following[0].wake.set()
        if error is not None:
            for i in batch:
                i.settle(error=error)
            return
        if self.on_batch is not None:
            self.on_batch(len(batch))
        for i, value in zip(batch, values):
            i.settle(float(value))

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Fail every queued request and refuse new ones.

        Called *after* the worker pool drained (so normally nothing is
        queued); when a drain timed out, this is what unblocks the requests
        queued behind a batch a hung model call will never finish.  The
        executing batch itself is left to finish on its own.
        """
        with self._lock:
            self._closed = True
            stranded = [
                item for queue in self._pending.values() for item in queue
            ]
            self._pending.clear()
        error = EstimationError("micro-batcher closed with requests queued")
        for item in stranded:
            item.settle(error=error)

    def pending_count(self, key: str | None = None) -> int:
        """Requests queued behind an executing batch (of ``key``, or all)."""
        with self._lock:
            if key is not None:
                return len(self._pending.get(key, ()))
            return sum(len(q) for q in self._pending.values())
