"""The one cache class: a bounded, thread-safe LRU.

Every cache in the package is a :class:`GenerationLRU`, and no entry is
ever invalidated: each key names what its value was computed from, so an
entry cannot outlive it.  A predicate's bin-mask and a plan scope's beliefs
carry their model's never-reused context token
(:attr:`BNInferenceContext.token`); a served estimate carries the tokens of
the model snapshot that answered it
(:meth:`~repro.estimators.base.CountEstimator.cache_key`), and a memoized
plan those tokens plus its tables' catalog state.  Once a model is
replaced its entries can never match again, and they age out of the LRU.

Given a ``prefix``, the ``hits`` / ``misses`` / ``evictions`` counters are
mirrored as ``<prefix>_<counter>_total``; hits and misses are registered up
front, evictions when they first happen.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable

from repro.obs.metrics import NULL_METRIC, MetricsRegistry


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
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self.hits = self.misses = self.evictions = 0
        #: always 0 -- nothing is invalidated; still read by the ledger
        self.invalidations = 0
        self._registry = registry if prefix else None
        self._prefix = prefix
        self._hits_total = self._mirror("hits")
        self._misses_total = self._mirror("misses")

    def _mirror(self, counter: str):
        if self._registry is None:
            return NULL_METRIC
        return self._registry.counter(f"{self._prefix}_{counter}_total")

    # ------------------------------------------------------------------
    # Lookup / insert
    # ------------------------------------------------------------------
    def get(self, key: Hashable) -> Any:
        """The cached value, or ``None`` on a miss."""
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                self._hits_total.inc()
                return value
            self.misses += 1
            self._misses_total.inc()
            return None

    def put(self, key: Hashable, value: Any) -> None:
        """Insert (or replace) ``value`` as the most recently used entry."""
        with self._lock:
            self._insert(key, value)

    def get_or_create(self, key: Hashable, create: Callable[[], Any]) -> Any:
        """The value under ``key``, built by ``create()`` on a miss.

        ``create`` runs outside the lock; when two threads race on one key
        both get the value that was stored first.
        """
        value = self.get(key)
        if value is not None:
            return value
        value = create()
        with self._lock:
            stored = self._entries.get(key)
            if stored is not None:
                return stored
            self._insert(key, value)
        return value

    def _insert(self, key: Hashable, value: Any) -> None:
        entries = self._entries
        entries[key] = value
        entries.move_to_end(key)
        while len(entries) > self.max_entries:
            entries.popitem(last=False)
            self.evictions += 1
            self._mirror("evictions").inc()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
