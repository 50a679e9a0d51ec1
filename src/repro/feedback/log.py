"""The runtime cardinality feedback log.

The executor computes true cardinalities as a by-product of every scan and
join; until this module they were thrown away.  A :class:`FeedbackLog` is a
bounded, thread-safe ring of ``(fingerprint, table_scope, estimated,
actual, timestamp)`` pairs captured on the execution path -- free drift
evidence the Model Monitor consumes instead of (a share of) its synthetic
test queries, and the signal the forge uses to rank retrains by *observed*
error mass rather than fixed priorities (the paper's Section 4.4.2
monitor/fine-tune loop, driven by production queries instead of probes).

Two write paths feed one ring:

* **complete pairs** -- the executor knows both sides (the plan's estimate
  and the scan/join's actual cardinality) and appends a finished
  :class:`FeedbackRecord` via :meth:`FeedbackLog.record`;
* **pending estimates** -- the serving tier answers estimates (including
  cache hits, which never touch a model) before any actual exists.  It
  *notes* them via :meth:`FeedbackLog.note_estimate`; when the executor
  later observes the actual for the same fingerprint it pairs the two,
  preserving the serving-side provenance (``cache`` / ``model`` /
  ``fallback-*``) in the record's ``source``.

Non-finite estimates or actuals never enter the ring (counted in
``feedback_records_dropped_total{reason="non-finite"}``): a NaN here would
poison every Q-Error quantile computed downstream.
"""

from __future__ import annotations

import math
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Hashable, Iterable

from repro.metrics.qerror import qerror
from repro.obs.metrics import MetricsRegistry

__all__ = ["FeedbackLog", "FeedbackRecord", "PendingEstimate"]

#: drop reasons pre-registered so exports show explicit zeros
DROP_REASONS = ("non-finite", "pending-evicted")


@dataclass(frozen=True)
class FeedbackRecord:
    """One observed (estimate, actual) cardinality pair."""

    #: canonical query fingerprint (see :mod:`repro.serving.fingerprint`)
    fingerprint: Hashable
    #: tables the cardinality covers -- ``(table,)`` for scans, the sorted
    #: joined prefix for join steps
    table_scope: tuple[str, ...]
    estimated: float
    actual: float
    timestamp: float
    #: where the estimate came from: ``plan`` (optimizer-recorded), or the
    #: serving tier's provenance (``cache`` / ``model`` / ``fallback-*``)
    source: str = "plan"
    #: which execution step observed the actual: ``scan`` | ``join``
    kind: str = "scan"

    @property
    def qerror(self) -> float:
        return qerror(self.estimated, self.actual)

    @property
    def log_qerror(self) -> float:
        """Natural log of the Q-Error -- the unit of observed error mass."""
        return math.log(self.qerror)


@dataclass(frozen=True)
class PendingEstimate:
    """A served estimate waiting for its runtime actual."""

    value: float
    source: str
    #: ``rows`` (COUNT estimates) or ``fraction`` (selectivities, scaled by
    #: the table's row count at pairing time)
    unit: str = "rows"


class FeedbackLog:
    """Bounded, thread-safe runtime feedback ring plus a pending-estimate
    side table.

    Appends are O(1) under one lock; :meth:`drain` / :meth:`take_for_table`
    remove evidence atomically so a consumer (the monitor) never sees the
    same record twice while executor threads keep appending.
    """

    def __init__(
        self,
        capacity: int = 4096,
        pending_capacity: int = 1024,
        registry: MetricsRegistry | None = None,
    ):
        if capacity < 1:
            raise ValueError("feedback capacity must be >= 1")
        if pending_capacity < 1:
            raise ValueError("pending capacity must be >= 1")
        self.capacity = capacity
        self.pending_capacity = pending_capacity
        self.registry = (
            registry if registry is not None else MetricsRegistry(enabled=False)
        )
        self._lock = threading.Lock()
        self._records: deque[FeedbackRecord] = deque(maxlen=capacity)
        self._pending: OrderedDict[Hashable, PendingEstimate] = OrderedDict()
        if self.registry.enabled:
            self.registry.preregister(
                "feedback_records_dropped_total", "reason", DROP_REASONS
            )
            self.registry.preregister(
                "feedback_records_total", "kind", ("scan", "join")
            )

    # ------------------------------------------------------------------
    # Write path (executor / serving tier)
    # ------------------------------------------------------------------
    def record(
        self,
        fingerprint: Hashable,
        table_scope: Iterable[str],
        estimated: float,
        actual: float,
        source: str = "plan",
        kind: str = "scan",
        timestamp: float | None = None,
    ) -> FeedbackRecord | None:
        """Append one complete pair; returns ``None`` (and counts the drop)
        when either side is non-finite."""
        est = float(estimated)
        act = float(actual)
        if not (math.isfinite(est) and math.isfinite(act)):
            self.registry.counter(
                "feedback_records_dropped_total", reason="non-finite"
            ).inc()
            return None
        rec = FeedbackRecord(
            fingerprint=fingerprint,
            table_scope=tuple(table_scope),
            estimated=est,
            actual=act,
            timestamp=time.time() if timestamp is None else timestamp,
            source=source,
            kind=kind,
        )
        with self._lock:
            self._records.append(rec)
        self.registry.counter("feedback_records_total", kind=kind).inc()
        return rec

    def note_estimate(
        self,
        fingerprint: Hashable,
        table_scope: Iterable[str],
        value: float,
        source: str = "model",
        unit: str = "rows",
    ) -> None:
        """Register a served estimate awaiting its runtime actual.

        ``table_scope`` is accepted (and ignored) so callers need not
        special-case it; the scope is authoritative at pairing time, when
        the executor knows exactly which scan/join produced the actual.
        The side table is LRU-bounded: estimates that never execute are
        evicted (counted), not accumulated.
        """
        value = float(value)
        if not math.isfinite(value):
            self.registry.counter(
                "feedback_records_dropped_total", reason="non-finite"
            ).inc()
            return
        evicted = 0
        with self._lock:
            self._pending[fingerprint] = PendingEstimate(value, source, unit)
            self._pending.move_to_end(fingerprint)
            while len(self._pending) > self.pending_capacity:
                self._pending.popitem(last=False)
                evicted += 1
        if evicted:
            self.registry.counter(
                "feedback_records_dropped_total", reason="pending-evicted"
            ).inc(evicted)

    def take_estimate(self, fingerprint: Hashable) -> PendingEstimate | None:
        """Claim (and remove) the pending estimate for one fingerprint."""
        with self._lock:
            return self._pending.pop(fingerprint, None)

    # ------------------------------------------------------------------
    # Read path (monitor / forge)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    @property
    def pending_count(self) -> int:
        with self._lock:
            return len(self._pending)

    def snapshot(self) -> list[FeedbackRecord]:
        """Every retained record, oldest first, without consuming."""
        with self._lock:
            return list(self._records)

    def drain(self) -> list[FeedbackRecord]:
        """Atomically remove and return every retained record."""
        with self._lock:
            records = list(self._records)
            self._records.clear()
        return records

    def records_for(self, table: str) -> list[FeedbackRecord]:
        """Single-table records for ``table`` (the COUNT-model evidence),
        oldest first, without consuming."""
        scope = (table,)
        with self._lock:
            return [r for r in self._records if r.table_scope == scope]

    def take_for_table(
        self, table: str, limit: int | None = None
    ) -> list[FeedbackRecord]:
        """Remove and return (up to ``limit`` of the most recent)
        single-table records for ``table``.

        Consuming matters: evidence against the *old* model must not
        re-fail a freshly retrained one -- the monitor takes what it uses,
        so a post-retrain reassessment only sees feedback produced after
        the swap.
        """
        scope = (table,)
        with self._lock:
            matching = [r for r in self._records if r.table_scope == scope]
            if limit is not None and limit < len(matching):
                matching = matching[len(matching) - limit :]
            if matching:
                taken = set(map(id, matching))
                kept = [r for r in self._records if id(r) not in taken]
                self._records.clear()
                self._records.extend(kept)
        return matching

    def scoped_tables(self) -> list[str]:
        """Tables with at least one single-table record, sorted."""
        with self._lock:
            tables = {
                r.table_scope[0]
                for r in self._records
                if len(r.table_scope) == 1
            }
        return sorted(tables)

    def error_mass(self, table: str) -> float:
        """Sum of log-Q-Error over retained single-table records.

        The forge's retrain-priority signal: many mildly-wrong or a few
        badly-wrong observed estimates both accumulate mass, unlike a p90
        that one lucky batch can mask.
        """
        return sum(r.log_qerror for r in self.records_for(table))
