"""The runtime cardinality feedback log.

The executor computes true cardinalities as a by-product of every scan and
join; until this module they were thrown away.  A :class:`FeedbackLog` is a
bounded, thread-safe ring of ``(fingerprint, table_scope, estimated,
actual, timestamp)`` pairs captured on the execution path -- free drift
evidence the Model Monitor consumes instead of (a share of) its synthetic
test queries, and the signal the forge uses to rank retrains by *observed*
error mass rather than fixed priorities (the paper's Section 4.4.2
monitor/fine-tune loop, driven by production queries instead of probes).

One write path feeds the ring: the executor knows both sides -- the
estimate its plan used and the scan/join's actual cardinality -- and
appends a finished :class:`FeedbackRecord` via :meth:`FeedbackLog.record`.

Non-finite estimates or actuals never enter the ring (counted in
``feedback_records_dropped_total{reason="non-finite"}``): a NaN here would
poison every Q-Error quantile computed downstream.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Hashable, Iterable

from repro.metrics.qerror import qerror
from repro.obs.metrics import MetricsRegistry

__all__ = ["FeedbackLog", "FeedbackRecord"]

#: drop reasons pre-registered so exports show explicit zeros
DROP_REASONS = ("non-finite",)


@dataclass(frozen=True)
class FeedbackRecord:
    """One observed (estimate, actual) cardinality pair."""

    #: the positional key the executor writes (``scan:<query>:<table>`` or
    #: ``join:<query>:<scope>``)
    fingerprint: Hashable
    #: tables the cardinality covers -- ``(table,)`` for scans, the sorted
    #: joined prefix for join steps
    table_scope: tuple[str, ...]
    estimated: float
    actual: float
    timestamp: float
    #: which execution step observed the actual: ``scan`` | ``join``
    kind: str = "scan"

    @property
    def qerror(self) -> float:
        return qerror(self.estimated, self.actual)

    @property
    def log_qerror(self) -> float:
        """Natural log of the Q-Error -- the unit of observed error mass."""
        return math.log(self.qerror)


class FeedbackLog:
    """Bounded, thread-safe runtime feedback ring.

    Appends are O(1) under one lock; :meth:`take_for_table` removes
    evidence atomically so a consumer (the monitor) never sees the
    same record twice while executor threads keep appending.
    """

    def __init__(
        self,
        capacity: int = 4096,
        registry: MetricsRegistry | None = None,
    ):
        if capacity < 1:
            raise ValueError("feedback capacity must be >= 1")
        self.capacity = capacity
        self.registry = (
            registry if registry is not None else MetricsRegistry(enabled=False)
        )
        self._lock = threading.Lock()
        self._records: deque[FeedbackRecord] = deque(maxlen=capacity)
        if self.registry.enabled:
            self.registry.preregister(
                "feedback_records_dropped_total", "reason", DROP_REASONS
            )
            self.registry.preregister(
                "feedback_records_total", "kind", ("scan", "join")
            )

    # ------------------------------------------------------------------
    # Write path (executor)
    # ------------------------------------------------------------------
    def record(
        self,
        fingerprint: Hashable,
        table_scope: Iterable[str],
        estimated: float,
        actual: float,
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
            kind=kind,
        )
        with self._lock:
            self._records.append(rec)
        self.registry.counter("feedback_records_total", kind=kind).inc()
        return rec

    # ------------------------------------------------------------------
    # Read path (monitor / forge)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def snapshot(self) -> list[FeedbackRecord]:
        """Every retained record, oldest first, without consuming."""
        with self._lock:
            return list(self._records)

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
