"""Capacity-doubling hash-table simulation for aggregation.

The paper's aggregation bottleneck: each time the number of distinct keys
crosses ``capacity * load_factor`` the table doubles, re-allocating and
rehashing every resident entry.  The simulation replays the distinct-growth
curve of the key stream, so resize counts and rehash volumes match what a
real open-addressing table would do -- which is what Figure 6(b) measures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _next_power_of_two(value: int) -> int:
    power = 1
    while power < value:
        power <<= 1
    return power


@dataclass
class SimulatedHashTable:
    """Tracks resizes of a hash aggregation over a stream of group keys."""

    initial_capacity: int = 256
    load_factor: float = 0.5

    def __post_init__(self) -> None:
        if self.initial_capacity < 1:
            raise ValueError("initial capacity must be >= 1")
        if not 0.0 < self.load_factor <= 1.0:
            raise ValueError("load factor must be in (0, 1]")
        self.capacity = _next_power_of_two(self.initial_capacity)
        self.distinct = 0
        self.resize_count = 0
        self.moved_entries = 0
        #: keys already resident from previous ``insert_stream`` calls --
        #: a re-inserted key must not count as a new distinct entry
        self._resident: set = set()

    # ------------------------------------------------------------------
    def _grow_to(self, target_distinct: int) -> None:
        """Advance the distinct count, replaying every threshold crossing.

        A resize fires when the distinct count first exceeds
        ``capacity * load_factor``; at that moment all resident entries
        (``threshold`` of them) are rehashed into the doubled table.
        """
        while self.distinct < target_distinct:
            threshold = int(self.capacity * self.load_factor)
            if target_distinct <= threshold:
                self.distinct = target_distinct
                break
            # Fill up to the threshold, then the next insert triggers the
            # resize, moving everything currently resident.
            self.distinct = threshold + 1
            self.moved_entries += threshold
            self.capacity <<= 1
            self.resize_count += 1

    def insert_stream(self, keys: np.ndarray) -> int:
        """Insert a stream of keys; returns the final distinct count.

        Resize behaviour depends only on how many *new* keys arrive, so the
        growth curve is folded into threshold crossings directly.  Keys are
        tracked across calls: a key already resident from an earlier block
        does not count again, so streaming overlapping blocks matches one
        concatenated insert (the Figure 6(b) accounting).
        """
        keys = np.asarray(keys)
        if keys.size == 0:
            return self.distinct
        batch = np.unique(keys)
        if self._resident:
            fresh = [k for k in batch.tolist() if k not in self._resident]
        else:
            fresh = batch.tolist()
        if not fresh:
            return self.distinct
        self._resident.update(fresh)
        self._grow_to(self.distinct + len(fresh))
        return self.distinct
