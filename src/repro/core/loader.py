"""The Model Loader: timestamp-based refresh, size gating, LRU eviction.

Runs as one of the Daemon Manager's background tasks in production; here it
is driven explicitly via :meth:`ModelLoader.refresh`.  Semantics follow the
paper:

* only blobs with a **newer timestamp** than the loaded version are
  considered ("only models with the most recent timestamp are considered
  for loading and updating");
* a blob failing the **size checker** or the **health detector** is
  refused, keeping the previous version serving;
* when the cumulative size exceeds the budget, the **least recently used**
  models are evicted.

The loader also maintains a **generation counter**: every refresh pass that
changes the serving set (loads or evicts at least one model) bumps it, and
every pass returns a :class:`RefreshReport`.  A pass that changed nothing
leaves :meth:`ByteCard.refresh <repro.core.bytecard.ByteCard.refresh>`'s
model snapshot -- and so every cached answer -- as it was.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.core.engine import CardEstInferenceEngine
from repro.core.registry import ModelRegistry
from repro.core.validator import ModelValidator
from repro.obs.metrics import MetricsRegistry


@dataclass
class _LoadedModel:
    engine: CardEstInferenceEngine
    timestamp: int
    nbytes: int
    last_used: int = 0
    #: monotonically increasing insertion sequence, the LRU tie-breaker
    seq: int = 0


#: refusal categories, the ``reason`` label of
#: ``loader_models_refused_total`` (pre-registered so exports always carry
#: all three, even at zero -- the CI smoke contract)
REFUSAL_REASONS = ("size", "deserialize", "health")


@dataclass
class RefreshReport:
    """What one refresh pass did."""

    loaded: list[tuple[str, str]] = field(default_factory=list)
    refused: list[tuple[str, str, str]] = field(default_factory=list)
    evicted: list[tuple[str, str]] = field(default_factory=list)
    unchanged: list[tuple[str, str]] = field(default_factory=list)
    #: refusal categories parallel to :attr:`refused` (see REFUSAL_REASONS)
    refusal_reasons: list[str] = field(default_factory=list)

    def refusals(self) -> list[tuple[str, str, str, str]]:
        """(kind, name, reason-category, detail) per refused load."""
        return [
            (kind, name, reason, detail)
            for (kind, name, detail), reason in zip(
                self.refused, self.refusal_reasons
            )
        ]


class ModelLoader:
    """Loads models from the registry into inference engines."""

    def __init__(
        self,
        registry: ModelRegistry,
        validator: ModelValidator,
        engine_factory,
        max_total_bytes: int,
        metrics: MetricsRegistry | None = None,
    ):
        """``engine_factory(kind, name)`` builds an empty engine per model."""
        self.registry = registry
        self.validator = validator
        self.engine_factory = engine_factory
        self.max_total_bytes = max_total_bytes
        self.metrics = metrics if metrics is not None else MetricsRegistry(enabled=False)
        self._loaded: dict[tuple[str, str], _LoadedModel] = {}
        self._tick = 0
        self._seq = 0
        self._generation = 0
        #: guards the loaded-model map only; held for dict ops, never
        #: across deserialization or validation
        self._lock = threading.Lock()
        #: serializes whole refresh passes (the slow part runs unlocked)
        self._refresh_lock = threading.Lock()
        if self.metrics.enabled:
            # Pre-register the refusal counters so a scrape can assert on
            # them (at zero) before the first refusal ever happens.
            for reason in REFUSAL_REASONS:
                self.metrics.counter(
                    "loader_models_refused_total", reason=reason
                )

    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        """Bumped whenever a refresh pass loads or evicts any model."""
        return self._generation

    # ------------------------------------------------------------------
    def refresh(self) -> RefreshReport:
        """One loader pass over everything the registry holds.

        Deserialization, validation, and context initialization -- the
        expensive part -- run *outside* the map lock: :meth:`get` on the
        serving hot path never blocks behind a refresh.  Prepared engines
        are swapped in under the lock at the end of the pass.
        """
        with self._refresh_lock:
            return self._refresh_pass()

    def _refresh_pass(self) -> RefreshReport:
        report = RefreshReport()
        with self._lock:
            current_ts = {
                key: model.timestamp for key, model in self._loaded.items()
            }
        staged: list[tuple[tuple[str, str], CardEstInferenceEngine, int, int]] = []
        for key in self.registry.keys():
            kind, name = key
            record = self.registry.latest(kind, name)
            assert record is not None
            loaded_ts = current_ts.get(key)
            if loaded_ts is not None and loaded_ts >= record.timestamp:
                report.unchanged.append(key)
                continue
            size_check = self.validator.check_size(record.blob)
            if not size_check.ok:
                self._refuse(
                    report, key, "size", "; ".join(size_check.problems)
                )
                continue
            engine = self.engine_factory(kind, name)
            if not engine.load_model(record.blob):
                self._refuse(
                    report, key, "deserialize", "deserialization failed"
                )
                continue
            health = engine.validate()
            if not health.ok:
                self._refuse(report, key, "health", "; ".join(health.problems))
                continue
            engine.init_context()
            staged.append((key, engine, record.timestamp, record.nbytes))
        with self._lock:
            for key, engine, timestamp, nbytes in staged:
                resident = self._loaded.get(key)
                if resident is not None and resident.timestamp >= timestamp:
                    # another publish+refresh won the race mid-pass
                    report.unchanged.append(key)
                    continue
                self._tick += 1
                self._seq += 1
                self._loaded[key] = _LoadedModel(
                    engine=engine,
                    timestamp=timestamp,
                    nbytes=nbytes,
                    last_used=self._tick,
                    seq=self._seq,
                )
                report.loaded.append(key)
            self._evict_over_budget(report)
            if report.loaded or report.evicted:
                self._generation += 1
            self._record_metrics(report)
        return report

    def _refuse(
        self,
        report: RefreshReport,
        key: tuple[str, str],
        reason: str,
        detail: str,
    ) -> None:
        """Record one refused load, with its reason category in the obs
        registry -- a silent refusal is an invisible production outage."""
        kind, name = key
        report.refused.append((kind, name, detail))
        report.refusal_reasons.append(reason)
        if self.metrics.enabled:
            self.metrics.counter(
                "loader_models_refused_total", reason=reason
            ).inc()

    def _record_metrics(self, report: RefreshReport) -> None:
        """Loader lifecycle events -> the observability registry."""
        metrics = self.metrics
        if not metrics.enabled:
            return
        metrics.counter("loader_refresh_total").inc()
        if report.loaded:
            metrics.counter("loader_models_loaded_total").inc(len(report.loaded))
        if report.evicted:
            metrics.counter("loader_models_evicted_total").inc(len(report.evicted))
        metrics.gauge("loader_generation").set(self._generation)
        metrics.gauge("loader_loaded_models").set(len(self._loaded))
        metrics.gauge("loader_loaded_bytes").set(
            sum(m.nbytes for m in self._loaded.values())
        )

    def _evict_over_budget(self, report: RefreshReport) -> None:
        total = sum(m.nbytes for m in self._loaded.values())
        if total <= self.max_total_bytes:
            return
        # Least-recently-used first; equal recency is broken deterministically
        # by insertion order (earliest-loaded evicted first).
        victims = sorted(
            self._loaded,
            key=lambda k: (self._loaded[k].last_used, self._loaded[k].seq),
        )
        for key in victims:
            if total <= self.max_total_bytes:
                break
            total -= self._loaded[key].nbytes
            del self._loaded[key]
            report.evicted.append(key)

    # ------------------------------------------------------------------
    def get(self, kind: str, name: str) -> CardEstInferenceEngine | None:
        """Fetch a loaded engine, updating its LRU recency."""
        with self._lock:
            entry = self._loaded.get((kind, name))
            if entry is None:
                return None
            self._tick += 1
            entry.last_used = self._tick
            return entry.engine

    def peek_last_used(self, kind: str, name: str) -> int | None:
        """The recency tick of a loaded model, without touching it."""
        entry = self._loaded.get((kind, name))
        return None if entry is None else entry.last_used

    def loaded_keys(self) -> list[tuple[str, str]]:
        with self._lock:
            return sorted(self._loaded)

    def total_bytes(self) -> int:
        with self._lock:
            return sum(m.nbytes for m in self._loaded.values())
