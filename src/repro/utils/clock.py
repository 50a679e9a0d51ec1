"""Injectable time source shared by the forge, serving, and stream tiers.

Production code reads time through a :class:`Clock` so tests and the
:mod:`repro.stream` soak driver can substitute a deterministic simulated
clock (:class:`repro.stream.SimClock`) without monkeypatching
``time.monotonic`` globally.  The protocol is deliberately tiny:

``now()``
    A monotonically non-decreasing float of seconds.  Under the system
    clock this is ``time.monotonic()``; under a simulated clock it is
    virtual time that only moves when the driver advances it.

``wait_timeout(delay)``
    Translate a desired wait of ``delay`` clock-seconds into the *real*
    timeout to pass to ``Condition.wait`` / ``Event.wait``.  The system
    clock returns ``delay`` unchanged.  A simulated clock returns a short
    real poll interval instead, because virtual time does not pass while a
    thread sleeps -- waiters must wake periodically and re-read ``now()``.
    ``None`` (wait until notified) passes through under every clock.

Blocking waits must therefore always be written as a loop that re-checks
the deadline against ``clock.now()`` -- which is exactly how a correct
``Condition.wait`` loop is written anyway.
"""

from __future__ import annotations

import time
from typing import Protocol, runtime_checkable

__all__ = ["Clock", "SystemClock", "SYSTEM_CLOCK"]


@runtime_checkable
class Clock(Protocol):
    """Duck-typed time source; see the module docstring for the contract."""

    def now(self) -> float: ...

    def wait_timeout(self, delay: float | None) -> float | None: ...


class SystemClock:
    """The real wall clock: ``time.monotonic`` semantics."""

    def now(self) -> float:
        return time.monotonic()

    def wait_timeout(self, delay: float | None) -> float | None:
        return delay


#: shared default instance; ``clock=None`` parameters resolve to this
SYSTEM_CLOCK = SystemClock()
