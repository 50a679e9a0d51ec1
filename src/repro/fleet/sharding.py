"""Consistent-hash shard ownership over the (table, model) space.

Each fleet worker warm-starts the *full* model set from the artifact store
(models are small; loading everything is what makes restart re-warm
trivial), but requests are routed by **shard ownership** so that a given
table's -- or a given join scope's -- traffic always lands on the same
worker.  Ownership is what makes the per-worker estimate and plan caches
effective: repeated fingerprints hit a warm cache instead of spreading cold
across the fleet.

The ring uses SHA-1 points, not Python's builtin ``hash`` --
``PYTHONHASHSEED`` randomizes the latter per process, and the router and
any observer (tests, a rebalancing tool) must agree on ownership across
process boundaries.  Virtual nodes smooth the balance the way any small
consistent-hash deployment does.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Iterable, Sequence

from repro.errors import FleetError

__all__ = ["ShardMap"]


def _point(key: str) -> int:
    """A stable 64-bit ring position for ``key`` (process-independent)."""
    return int.from_bytes(hashlib.sha1(key.encode("utf-8")).digest()[:8], "big")


class ShardMap:
    """Consistent-hash ring mapping routing keys to worker ids."""

    def __init__(self, worker_ids: Sequence[int], virtual_nodes: int = 64):
        if not worker_ids:
            raise FleetError("a shard map needs at least one worker")
        if len(set(worker_ids)) != len(worker_ids):
            raise FleetError("worker ids must be unique")
        if virtual_nodes < 1:
            raise FleetError("virtual_nodes must be >= 1")
        self.worker_ids = tuple(worker_ids)
        self.virtual_nodes = virtual_nodes
        ring: list[tuple[int, int]] = []
        for wid in self.worker_ids:
            for vnode in range(virtual_nodes):
                ring.append((_point(f"worker:{wid}:vnode:{vnode}"), wid))
        ring.sort()
        self._points = [point for point, _wid in ring]
        self._owners = [wid for _point_, wid in ring]

    # ------------------------------------------------------------------
    # Routing keys
    # ------------------------------------------------------------------
    @staticmethod
    def scope_key(tables: Iterable[str]) -> str:
        """The routing key of a query's table scope.

        Single-table queries route by table; join queries route by their
        *sorted* table set, so every join over the same scope lands on the
        same worker and shares its plan-cache artifacts.
        """
        names = sorted(tables)
        if len(names) == 1:
            return f"table:{names[0]}"
        return "scope:" + "|".join(names)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def owner_of(self, key: str) -> int:
        """The worker owning ``key``: first ring point at or after it."""
        index = bisect.bisect_right(self._points, _point(key))
        return self._owners[index % len(self._owners)]

    def owner_for_tables(self, tables: Iterable[str]) -> int:
        return self.owner_of(self.scope_key(tables))

    def assignment(self, keys: Iterable[str]) -> dict[int, list[str]]:
        """Group ``keys`` by owning worker (diagnostics and tests)."""
        grouped: dict[int, list[str]] = {wid: [] for wid in self.worker_ids}
        for key in keys:
            grouped[self.owner_of(key)].append(key)
        return grouped
