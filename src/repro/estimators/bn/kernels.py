"""Compiled predicate evidence feeding the BN inference context.

:class:`EvidenceCache` is a generation-stamped ``predicate -> bin-mask
vector`` cache, so repeated query templates skip the per-predicate Python
bin loops of :meth:`Discretizer.evidence`.  Model refreshes bump the owning
table's generation exactly like the serving tier's estimate/plan caches.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Iterable

import numpy as np

from repro.estimators.bn.discretize import Discretizer
from repro.obs.metrics import MetricsRegistry
from repro.sql.query import TablePredicate

#: (global_generation, table_generation) at insert time
_Stamp = tuple[int, int]


class EvidenceCache:
    """Generation-stamped ``predicate -> bin-mask vector`` LRU cache.

    :meth:`Discretizer.evidence` walks bins in a Python loop per predicate
    per query; for the repeated templates that dominate real workloads the
    resulting vectors are identical every time.  This cache keys them by
    the (frozen, hashable) :class:`TablePredicate` itself and invalidates
    like the serving tier's estimate/plan caches: a model refresh bumps the
    owning table's generation and lookups lazily drop stale entries.  The
    cached vectors are read-only so every consumer multiplies from the same
    immutable mask.

    Hit/miss/invalidation counts are mirrored into a
    :class:`~repro.obs.metrics.MetricsRegistry` as
    ``evidence_cache_hits_total`` / ``evidence_cache_misses_total`` /
    ``evidence_cache_invalidations_total``.
    """

    def __init__(
        self,
        max_entries: int = 8192,
        registry: MetricsRegistry | None = None,
    ):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self.registry = (
            registry if registry is not None else MetricsRegistry(enabled=False)
        )
        self._lock = threading.Lock()
        self._entries: OrderedDict[TablePredicate, tuple[np.ndarray, _Stamp]] = (
            OrderedDict()
        )
        self._table_generation: dict[str, int] = {}
        self._global_generation = 0
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0
        # Pre-register so exports show the series at zero from the start.
        self._hits_counter = self.registry.counter("evidence_cache_hits_total")
        self._misses_counter = self.registry.counter("evidence_cache_misses_total")
        self._invalidations_counter = self.registry.counter(
            "evidence_cache_invalidations_total"
        )

    # -- generations ---------------------------------------------------
    def bump_tables(self, tables: Iterable[str]) -> None:
        """Invalidate (lazily) every predicate vector on any of ``tables``."""
        with self._lock:
            for table in tables:
                self._table_generation[table] = (
                    self._table_generation.get(table, 0) + 1
                )

    def bump_all(self) -> None:
        """Invalidate (lazily) every cached vector."""
        with self._lock:
            self._global_generation += 1

    def _stamp(self, table: str) -> _Stamp:
        return (self._global_generation, self._table_generation.get(table, 0))

    # ------------------------------------------------------------------
    def vector(self, discretizer: Discretizer, pred: TablePredicate) -> np.ndarray:
        """The (read-only) bin-mask vector of one predicate.

        The discretizer is only consulted on a miss; its output is
        deterministic, so a current-generation hit is bitwise identical to
        a fresh :meth:`Discretizer.evidence` call.  A cached vector whose
        length no longer matches the discretizer (a refresh raced the bump)
        is treated as stale.
        """
        table = pred.table
        with self._lock:
            entry = self._entries.get(pred)
            if entry is not None:
                vec, stamp = entry
                if stamp == self._stamp(table) and vec.size == discretizer.num_bins:
                    self._entries.move_to_end(pred)
                    self.hits += 1
                    self._hits_counter.inc()
                    return vec
                del self._entries[pred]
                self.invalidations += 1
                self._invalidations_counter.inc()
        vec = np.ascontiguousarray(discretizer.evidence(pred), dtype=np.float64)
        vec.setflags(write=False)
        with self._lock:
            self._entries[pred] = (vec, self._stamp(table))
            self._entries.move_to_end(pred)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1
            self.misses += 1
            self._misses_counter.inc()
        return vec

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
