"""Injectable time source of the forge scheduler and the stream soak.

A :class:`repro.forge.scheduler.TrainingScheduler` without workers reads
time through a :class:`Clock`, so the :mod:`repro.stream` soak driver can
run training jobs on its deterministic simulated clock
(:class:`repro.stream.SimClock`) without monkeypatching
``time.monotonic`` globally.  The protocol is one method:

``now()``
    A monotonically non-decreasing float of seconds.  Under the system
    clock this is ``time.monotonic()``; under a simulated clock it is
    virtual time that only moves when the driver advances it.

Nothing ever blocks on a :class:`Clock`: threads wait in real seconds, and
virtual time passes only between the events its owner plays.
"""

from __future__ import annotations

import time
from typing import Protocol, runtime_checkable

__all__ = ["Clock", "SystemClock", "SYSTEM_CLOCK"]


@runtime_checkable
class Clock(Protocol):
    """Duck-typed time source; see the module docstring for the contract."""

    def now(self) -> float: ...


class SystemClock:
    """The real wall clock: ``time.monotonic`` semantics."""

    def now(self) -> float:
        return time.monotonic()


#: shared default instance; ``clock=None`` parameters resolve to this
SYSTEM_CLOCK = SystemClock()
