"""The simulated clock driving deterministic streaming runs.

:class:`SimClock` implements the :class:`repro.utils.clock.Clock` protocol
with *virtual* time: ``now()`` only moves when the owner calls
:meth:`advance` / :meth:`advance_to`.  The soak driver advances it to each
event's timestamp and runs the forge's due retrains right there, on its
own thread (a :class:`repro.forge.scheduler.TrainingScheduler` without
workers), so job timestamps, backoff deadlines and landings all read the
one virtual axis, and two runs with the same seed see the same timeline
regardless of host speed.
"""

from __future__ import annotations

import threading

from repro.utils.clock import SYSTEM_CLOCK, Clock, SystemClock

__all__ = ["Clock", "SystemClock", "SYSTEM_CLOCK", "SimClock"]


class SimClock:
    """A thread-safe, manually advanced virtual clock."""

    def __init__(self, start: float = 0.0):
        self._now = float(start)
        self._lock = threading.Lock()

    def now(self) -> float:
        with self._lock:
            return self._now

    def advance(self, delta_s: float) -> float:
        """Move time forward by ``delta_s`` seconds; returns the new time."""
        if delta_s < 0:
            raise ValueError(f"cannot advance time backwards by {delta_s}")
        with self._lock:
            self._now += float(delta_s)
            return self._now

    def advance_to(self, timestamp_s: float) -> float:
        """Move time forward to ``timestamp_s`` (no-op if already past)."""
        with self._lock:
            self._now = max(self._now, float(timestamp_s))
            return self._now
