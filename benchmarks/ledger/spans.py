"""In-memory spans recorded from the benchmark's side of each layer boundary.

The traced run wraps the public entry points the driver can reach -- in
place, under the same attribute names, so ``as_strategy`` capability
discovery sees exactly what it sees untraced -- and records one
:class:`Span` per call: name, start, end, the span that caused it, and the
id of the query it belongs to.  Nothing under ``src/`` is edited; spans
inside the program are a later change.

A layer's *self time* is its span's duration minus what its child spans
cover; summed over layers it accounts for the whole query.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterable


class Span:
    """One timed call.  ``tag`` is how a tier call was answered (its source)."""

    __slots__ = ("name", "start", "end", "parent", "query_id", "tag", "arg")

    def __init__(self, name: str, start: float, parent: "Span | None", query_id: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.query_id = query_id
        self.tag: str | None = None
        #: first positional argument of a tier call (the request, for replay)
        self.arg: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans per client thread; written out once at the end."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._per_thread: list[list[Span]] = []

    def _state(self):
        state = self._local
        if not hasattr(state, "spans"):
            state.spans = []
            state.stack = []
            state.query_id = -1
            with self._lock:
                self._per_thread.append(state.spans)
        return state

    @contextmanager
    def span(self, name: str, query_id: int | None = None):
        """Record the enclosed block; ``query_id`` starts a new request."""
        state = self._state()
        if query_id is not None:
            state.query_id = query_id
        parent = state.stack[-1] if state.stack else None
        span = Span(name, time.perf_counter(), parent, state.query_id)
        state.stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            state.stack.pop()
            state.spans.append(span)

    def wrap(
        self,
        fn: Callable,
        name: str,
        tag_of: Callable[[Any], str] | None = None,
        keep_arg: bool = False,
    ) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                if keep_arg and args:
                    span.arg = args[0]
                try:
                    result = fn(*args, **kwargs)
                except Exception:
                    span.tag = "raised"
                    raise
                if tag_of is not None:
                    span.tag = tag_of(result)
                return result

        return traced

    def spans(self) -> list[Span]:
        """Every finished span, in start order."""
        with self._lock:
            merged = [span for spans in self._per_thread for span in spans]
        merged.sort(key=lambda span: span.start)
        return merged


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------
def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """``id(span) -> duration minus the time its direct children cover``."""
    spans = list(spans)
    own = {id(span): span.duration for span in spans}
    for span in spans:
        if span.parent is not None and id(span.parent) in own:
            own[id(span.parent)] -= span.duration
    return own


# ---------------------------------------------------------------------------
# Instrumentation of public entry points
# ---------------------------------------------------------------------------
def _source_of(result) -> str:
    """How the tier answered: ``(value, source)`` tuples or ``.source``."""
    if isinstance(result, tuple):
        return str(result[1])
    return str(getattr(result, "source", "direct"))


#: tier attribute -> span name; only attributes the tier really has are
#: wrapped, so capability discovery is unchanged
TIER_METHODS = {
    "estimate_count_detail": "tier.count",
    "selectivity_detail": "tier.selectivity",
    "estimate_ndv": "tier.ndv",
    "group_ndv": "tier.group_ndv",
}


def instrument_tier(recorder: SpanRecorder, tier) -> None:
    """Wrap the tier's estimate entry points (before any session binds them)."""
    for attr, name in TIER_METHODS.items():
        if hasattr(tier, attr):
            tag_of = _source_of if attr.endswith("_detail") else None
            setattr(
                tier,
                attr,
                recorder.wrap(getattr(tier, attr), name, tag_of, keep_arg=True),
            )


def instrument_session(recorder: SpanRecorder, session) -> None:
    session.optimizer.plan = recorder.wrap(session.optimizer.plan, "optimizer.plan")
    session.executor.execute = recorder.wrap(
        session.executor.execute, "executor.execute"
    )


def instrument_refresh(recorder: SpanRecorder, bytecard) -> None:
    bytecard.refresh = recorder.wrap(bytecard.refresh, "loader.refresh")


@contextmanager
def instrument_sql(recorder: SpanRecorder):
    """Wrap ``parse_sql`` and ``Binder.bind`` for the enclosed block."""
    from repro.sql import binder, parser

    original_parse, original_bind = parser.parse_sql, binder.Binder.bind
    parser.parse_sql = recorder.wrap(original_parse, "sql.parse")
    binder.Binder.bind = recorder.wrap(original_bind, "sql.bind")
    try:
        yield
    finally:
        parser.parse_sql, binder.Binder.bind = original_parse, original_bind
