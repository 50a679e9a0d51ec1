"""The one cache class: a bounded, thread-safe LRU with generation stamps.

Every cache in the package is a :class:`GenerationLRU`.  Entries must not
outlive what they were computed from, and there are two ways to see to it:

* **Key by the model.**  A value derived from exactly one model -- a
  predicate's bin-mask, a plan scope's beliefs -- carries that model's
  never-reused context token (:attr:`BNInferenceContext.token`) in its key,
  so once the model is replaced the entry can never match again and ages
  out of the LRU.  Nothing bumps such a cache.
* **Stamp by generation.**  A value that cannot name its models (the
  serving tier caches whole-estimator answers) is put with a :meth:`stamp`
  taken *before* it was computed; :meth:`bump_tables` / :meth:`bump_all`
  make older stamps stale, so a lookup drops the entry and a put of a value
  computed across the bump is refused.

Given a ``prefix``, the ``hits`` / ``misses`` / ``invalidations`` /
``evictions`` counters are mirrored as ``<prefix>_<counter>_total``; hits
and misses are registered up front, the others when they first happen.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable, Iterable

from repro.obs.metrics import NULL_METRIC, MetricsRegistry

#: (global generation, ((table, generation), ...)) when a value was computed
Stamp = tuple[int, tuple[tuple[str, int], ...]]


class GenerationLRU:
    """Bounded LRU; ``None`` is the miss marker, never a cached value."""

    def __init__(
        self,
        max_entries: int,
        registry: MetricsRegistry | None = None,
        prefix: str | None = None,
    ):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: OrderedDict[Hashable, tuple[Any, Stamp | None]] = OrderedDict()
        self._table_generation: dict[str, int] = {}
        self._global_generation = 0
        self.hits = self.misses = self.invalidations = self.evictions = 0
        self._registry = registry if prefix else None
        self._prefix = prefix
        self._hits_total = self._mirror("hits")
        self._misses_total = self._mirror("misses")

    def _mirror(self, counter: str):
        if self._registry is None:
            return NULL_METRIC
        return self._registry.counter(f"{self._prefix}_{counter}_total")

    # ------------------------------------------------------------------
    # Generations
    # ------------------------------------------------------------------
    def stamp(self, tables: Iterable[str]) -> Stamp:
        """Current generations of ``tables`` -- take it *before* computing a
        value, hand it to :meth:`put` afterwards."""
        with self._lock:
            return (
                self._global_generation,
                tuple(
                    (table, self._table_generation.get(table, 0))
                    for table in sorted(set(tables))
                ),
            )

    def bump_tables(self, tables: Iterable[str]) -> None:
        """Invalidate (lazily) every stamped entry touching ``tables``."""
        with self._lock:
            for table in tables:
                self._table_generation[table] = self._table_generation.get(table, 0) + 1

    def bump_all(self) -> None:
        """Invalidate (lazily) every stamped entry."""
        with self._lock:
            self._global_generation += 1

    def _is_current(self, stamp: Stamp | None) -> bool:
        if stamp is None:
            return True
        global_generation, table_generations = stamp
        return global_generation == self._global_generation and all(
            self._table_generation.get(table, 0) == generation
            for table, generation in table_generations
        )

    # ------------------------------------------------------------------
    # Lookup / insert
    # ------------------------------------------------------------------
    def get(self, key: Hashable) -> Any:
        """The cached value, or ``None`` on a miss or a stale stamp."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                value, stamp = entry
                if self._is_current(stamp):
                    self._entries.move_to_end(key)
                    self.hits += 1
                    self._hits_total.inc()
                    return value
                del self._entries[key]
                self._invalidated()
            self.misses += 1
            self._misses_total.inc()
            return None

    def put(self, key: Hashable, value: Any, stamp: Stamp | None = None) -> bool:
        """Insert ``value``; ``False`` (nothing stored) when ``stamp`` went
        stale while the value was being computed."""
        with self._lock:
            if not self._is_current(stamp):
                self._invalidated()
                return False
            self._insert(key, value, stamp)
            return True

    def get_or_create(self, key: Hashable, create: Callable[[], Any]) -> Any:
        """The unstamped value under ``key``, built by ``create()`` on a miss.

        ``create`` runs outside the lock; when two threads race on one key
        both get the value that was stored first.
        """
        value = self.get(key)
        if value is not None:
            return value
        value = create()
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                return entry[0]
            self._insert(key, value, None)
        return value

    def _insert(self, key: Hashable, value: Any, stamp: Stamp | None) -> None:
        entries = self._entries
        entries[key] = (value, stamp)
        entries.move_to_end(key)
        while len(entries) > self.max_entries:
            entries.popitem(last=False)
            self.evictions += 1
            self._mirror("evictions").inc()

    def _invalidated(self) -> None:
        self.invalidations += 1
        self._mirror("invalidations").inc()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
