"""The simulated clock driving deterministic streaming runs.

:class:`SimClock` implements the :class:`repro.utils.clock.Clock` protocol
with *virtual* time: ``now()`` only moves when the owner calls
:meth:`advance` / :meth:`advance_to`.  The soak driver advances it to each
event's timestamp, so two runs with the same seed see bit-identical
timelines regardless of host speed -- and the forge scheduler's job
timestamps, backoff deadlines, and drain budgets all read the same virtual
axis when constructed with ``clock=SimClock(...)``.

Threads cannot sleep virtual time away (it would never pass), so
``wait_timeout`` translates every bounded wait into a short *real* poll
interval: waiters wake, re-read ``now()``, and go back to waiting until
the driver has advanced far enough.  That keeps ``Condition``-based code
(the forge workers) correct under both clocks without special cases.
"""

from __future__ import annotations

import threading

from repro.utils.clock import SYSTEM_CLOCK, Clock, SystemClock

__all__ = ["Clock", "SystemClock", "SYSTEM_CLOCK", "SimClock"]


class SimClock:
    """A thread-safe, manually advanced virtual clock."""

    def __init__(self, start: float = 0.0, poll_s: float = 0.002):
        if poll_s <= 0:
            raise ValueError(f"poll_s must be positive, got {poll_s}")
        self._now = float(start)
        self._lock = threading.Lock()
        #: real-seconds granularity at which blocked threads re-check time
        self.poll_s = float(poll_s)

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

    def wait_timeout(self, delay: float | None) -> float | None:
        # Virtual seconds never elapse while a thread sleeps, so a bounded
        # wait becomes a real-time poll; an unbounded wait (``None``) stays
        # unbounded -- those waiters are woken by notify, not by time.
        if delay is None:
            return None
        return self.poll_s
