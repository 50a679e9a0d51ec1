"""Request-scoped tracing spans.

A :class:`Tracer` times named stages of a request.  Each span feeds two
sinks:

* the registry histogram ``span_seconds{span=...}`` (plus any extra
  labels), giving fleet-wide per-stage latency distributions, and
* an optional per-request ``sink`` list of :class:`SpanRecord`, which the
  caller attaches to its response -- the raw material of the enriched
  ``explain()`` output (per-stage timings and estimate provenance).

When the registry is disabled *and* no sink is given, ``span()`` returns a
shared no-op context manager: the hot path pays two function calls and no
allocation.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Iterator

from repro.obs.metrics import MetricsRegistry

_NULL_CONTEXT = nullcontext()


@dataclass(frozen=True)
class SpanRecord:
    """One completed span: what ran, for how long."""

    name: str
    duration_s: float


class Tracer:
    """Times stages into a registry (and optionally a per-request sink)."""

    def __init__(self, registry: MetricsRegistry | None = None):
        # NOTE: an empty registry is falsy (``__len__``), so test identity.
        if registry is None:
            registry = MetricsRegistry(enabled=False)
        self.registry = registry

    def span(
        self, name: str, sink: list[SpanRecord] | None = None, **labels
    ):
        """Context manager timing one stage.

        ``sink`` collects the record for request-scoped introspection even
        when the registry is disabled.
        """
        if not self.registry.enabled and sink is None:
            return _NULL_CONTEXT
        return self._timed(name, sink, labels)

    @contextmanager
    def _timed(
        self, name: str, sink: list[SpanRecord] | None, labels: dict
    ) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - start
            if self.registry.enabled:
                self.registry.histogram(
                    "span_seconds", span=name, **labels
                ).observe(duration)
            if sink is not None:
                sink.append(SpanRecord(name=name, duration_s=duration))
