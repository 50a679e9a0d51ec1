"""Metric primitives: counters, gauges, bounded histograms, drift series.

The registry is the backbone of ``repro.obs``: every subsystem (serving
tier, optimizer, executor, model loader, model monitor) records into one
:class:`MetricsRegistry` so a single export shows the whole deployment --
the visibility the paper's Model Monitor / Inference Engine split depends
on.  Two properties drive the design:

* **near-zero overhead when disabled** -- a disabled registry hands out
  shared no-op metric singletons, so instrumented code pays one attribute
  call and nothing else;
* **torn-state-free snapshots** -- every metric guards its mutable state
  with its own lock, and snapshots copy under that lock, so concurrent
  writers never produce a half-updated view (count advanced but the ring
  not yet appended, etc.).

Histogram quantiles use the shared :func:`repro.metrics.quantiles.quantile`
definition, so a "p99" here means the same thing as in every benchmark
table of the reproduction.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from repro.metrics.quantiles import quantile

#: canonical label encoding: sorted (key, value) pairs
LabelItems = tuple[tuple[str, str], ...]


def _label_items(labels: Mapping[str, object]) -> LabelItems:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def render_series_name(name: str, labels: LabelItems) -> str:
    """Prometheus-style series identifier: ``name{k="v",...}``."""
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonic counter."""

    kind = "counter"

    def __init__(self, name: str, labels: LabelItems = ()):
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def state_dict(self) -> dict:
        return {"value": self.value}

    def merge_state(self, state: Mapping) -> None:
        self.inc(float(state["value"]))


class Gauge:
    """Last-write-wins instantaneous value."""

    kind = "gauge"

    def __init__(self, name: str, labels: LabelItems = ()):
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def state_dict(self) -> dict:
        return {"value": self.value}

    def merge_state(self, state: Mapping) -> None:
        # Last-write-wins semantics: an imported snapshot replaces.
        self.set(float(state["value"]))


@dataclass(frozen=True)
class HistogramSnapshot:
    """Immutable view of one histogram at snapshot time.

    ``count``/``total`` cover every observation ever made; the quantiles
    cover the bounded window of recent observations.
    """

    count: int = 0
    total: float = 0.0
    min: float = 0.0
    max: float = 0.0
    p50: float = 0.0
    p90: float = 0.0
    p99: float = 0.0

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class Histogram:
    """Bounded-window histogram: lifetime count/sum + recent quantiles."""

    kind = "histogram"

    def __init__(self, name: str, labels: LabelItems = (), window: int = 2048):
        if window < 1:
            raise ValueError("histogram window must be >= 1")
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._ring: deque[float] = deque(maxlen=window)
        self._count = 0
        self._total = 0.0
        self._min = float("inf")
        self._max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._ring.append(value)
            self._count += 1
            self._total += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def values(self) -> list[float]:
        """The observations in the window, oldest first."""
        with self._lock:
            return list(self._ring)

    def snapshot(self) -> HistogramSnapshot:
        with self._lock:
            if not self._count:
                return HistogramSnapshot()
            window = list(self._ring)
            count, total = self._count, self._total
            lo, hi = self._min, self._max
        p50, p90, p99 = (
            quantile(window, 0.50),
            quantile(window, 0.90),
            quantile(window, 0.99),
        )
        return HistogramSnapshot(
            count=count, total=total, min=lo, max=hi, p50=p50, p90=p90, p99=p99
        )

    def state_dict(self) -> dict:
        with self._lock:
            return {
                "count": self._count,
                "total": self._total,
                "min": self._min,
                "max": self._max,
                "window": list(self._ring),
                "window_size": self._ring.maxlen,
            }

    def merge_state(self, state: Mapping) -> None:
        """Fold another histogram's state in: lifetime counters add, the
        bounded window concatenates (most recent observations win)."""
        with self._lock:
            self._count += int(state["count"])
            self._total += float(state["total"])
            if state["count"]:
                self._min = min(self._min, float(state["min"]))
                self._max = max(self._max, float(state["max"]))
            self._ring.extend(float(v) for v in state["window"])


class Series:
    """Bounded append-only series: one value per event, oldest dropped.

    The Model Monitor records one point per assessment, making per-table
    Q-Error *drift* observable over time (not just the latest gate result).
    """

    kind = "series"

    def __init__(self, name: str, labels: LabelItems = (), maxlen: int = 512):
        if maxlen < 1:
            raise ValueError("series maxlen must be >= 1")
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._points: deque[float] = deque(maxlen=maxlen)

    def append(self, value: float) -> None:
        with self._lock:
            self._points.append(float(value))

    def values(self) -> list[float]:
        with self._lock:
            return list(self._points)

    @property
    def last(self) -> float | None:
        with self._lock:
            return self._points[-1] if self._points else None

    def state_dict(self) -> dict:
        with self._lock:
            return {"points": list(self._points), "maxlen": self._points.maxlen}

    def merge_state(self, state: Mapping) -> None:
        with self._lock:
            self._points.extend(float(v) for v in state["points"])


class NullMetric:
    """Shared no-op stand-in handed out by a disabled registry."""

    kind = "null"
    name = ""
    labels: LabelItems = ()
    value = 0.0
    count = 0
    last = None

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def append(self, value: float) -> None:
        pass

    def snapshot(self) -> HistogramSnapshot:
        return HistogramSnapshot()

    def values(self) -> list[float]:
        return []


#: the singleton every disabled-registry call returns
NULL_METRIC = NullMetric()


class MetricsRegistry:
    """Get-or-create registry of named, labeled metrics.

    ``enabled=False`` turns every accessor into a return of the shared
    :data:`NULL_METRIC`; instrumented hot paths stay allocation-free and
    the export is empty.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._lock = threading.Lock()
        self._metrics: dict[tuple[str, LabelItems], object] = {}

    # ------------------------------------------------------------------
    def _get_or_create(self, cls, name: str, labels: Mapping[str, object], **kwargs):
        if not self.enabled:
            return NULL_METRIC
        key = (name, _label_items(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = cls(name, key[1], **kwargs)
                self._metrics[key] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {render_series_name(*key)} already registered "
                    f"as {metric.kind}, requested {cls.kind}"
                )
            return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def preregister(self, name: str, label: str, values: Iterable[str]) -> None:
        """Create one zero-valued counter per label value up front.

        Error-path counters (dropped frames, refused loads) must exist in
        the export *before* the first failure: an absent series is
        indistinguishable from "never happened", which is exactly the
        blindness pre-registration removes.
        """
        for value in values:
            self.counter(name, **{label: value})

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get_or_create(Gauge, name, labels)

    def histogram(self, name: str, window: int = 2048, **labels) -> Histogram:
        return self._get_or_create(Histogram, name, labels, window=window)

    def series(self, name: str, maxlen: int = 512, **labels) -> Series:
        return self._get_or_create(Series, name, labels, maxlen=maxlen)

    # ------------------------------------------------------------------
    def adopt(self, metric) -> None:
        """Register an externally constructed metric for export.

        Lets a component own always-on metrics (e.g. the serving tier's
        per-path latency rings, which must work even without observability)
        while still surfacing them through this registry's export.
        """
        if not self.enabled or isinstance(metric, NullMetric):
            return
        key = (metric.name, metric.labels)
        with self._lock:
            self._metrics.setdefault(key, metric)

    def metrics(self) -> Iterator[object]:
        """All registered metrics, sorted by (name, labels)."""
        with self._lock:
            items = sorted(self._metrics.items())
        return iter(metric for _key, metric in items)

    def get(self, name: str, **labels):
        """Look up a metric without creating it (``None`` when absent)."""
        with self._lock:
            return self._metrics.get((name, _label_items(labels)))

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    # ------------------------------------------------------------------
    # Cross-process state transfer
    # ------------------------------------------------------------------
    def state(self) -> list[dict]:
        """A serializable snapshot of every registered metric.

        The returned list is built from plain dicts / lists / floats, so it
        survives any transport (pickle frames over a fleet worker's pipe,
        JSON for files).  Feed it to :meth:`load_state` on the other side.
        """
        states: list[dict] = []
        for metric in self.metrics():
            state_dict = getattr(metric, "state_dict", None)
            if state_dict is None:  # pragma: no cover - foreign metric type
                continue
            states.append(
                {
                    "kind": metric.kind,
                    "name": metric.name,
                    "labels": [list(pair) for pair in metric.labels],
                    "state": state_dict(),
                }
            )
        return states

    def load_state(
        self, states: Iterable[Mapping], extra_labels: Mapping[str, object] = {}
    ) -> None:
        """Reconstruct (merging) metrics from a :meth:`state` snapshot.

        ``extra_labels`` is appended to every series -- the fleet router
        passes ``{"worker": <id>}`` so per-worker registries merge into one
        fleet-wide export without colliding.  Loading the same snapshot
        into an existing series *adds* (counters sum, histogram windows
        concatenate), so repeated pulls must target a fresh registry.
        """
        kinds = {
            "counter": (Counter, {}),
            "gauge": (Gauge, {}),
            "histogram": (Histogram, {}),
            "series": (Series, {}),
        }
        for entry in states:
            try:
                cls, _ = kinds[entry["kind"]]
            except KeyError:  # pragma: no cover - forward compatibility
                continue
            labels = dict(tuple(pair) for pair in entry["labels"])
            labels.update(extra_labels)
            state = entry["state"]
            kwargs = {}
            if cls is Histogram and state.get("window_size"):
                kwargs["window"] = int(state["window_size"])
            if cls is Series and state.get("maxlen"):
                kwargs["maxlen"] = int(state["maxlen"])
            metric = self._get_or_create(cls, entry["name"], labels, **kwargs)
            if not isinstance(metric, NullMetric):
                metric.merge_state(state)
