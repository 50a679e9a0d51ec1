"""Tests for the hash-table resize simulation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import SimulatedHashTable


class TestBasics:
    def test_initial_capacity_rounds_to_power_of_two(self):
        table = SimulatedHashTable(initial_capacity=100)
        assert table.capacity == 128

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SimulatedHashTable(initial_capacity=0)
        with pytest.raises(ValueError):
            SimulatedHashTable(load_factor=0.0)

    def test_no_resize_when_presized(self):
        table = SimulatedHashTable(initial_capacity=4096, load_factor=0.5)
        table.insert_stream(np.arange(2000))
        assert table.resize_count == 0
        assert table.moved_entries == 0

    def test_resizes_double_capacity(self):
        table = SimulatedHashTable(initial_capacity=4, load_factor=0.5)
        table.insert_stream(np.arange(100))
        # thresholds crossed: 2, 4, 8, 16, 32, 64 -> capacity 256.
        assert table.capacity == 256
        assert table.resize_count == 6

    def test_moved_entries_accumulate(self):
        table = SimulatedHashTable(initial_capacity=4, load_factor=0.5)
        table.insert_stream(np.arange(9))
        # moves at thresholds 2, 4, 8: 2 + 4 + 8 = 14.
        assert table.moved_entries == 14

    def test_insert_stream_counts_distinct(self):
        table = SimulatedHashTable(initial_capacity=256)
        final = table.insert_stream(np.array([1, 1, 2, 3, 3, 3]))
        assert final == 3
        assert table.distinct == 3

    def test_empty_stream(self):
        table = SimulatedHashTable()
        assert table.insert_stream(np.array([])) == 0


class TestOverlappingStreams:
    """Regression: successive ``insert_stream`` calls used to re-count keys
    already resident (``np.unique`` was per-batch only), double-counting
    distinct keys and inflating resize_count/moved_entries -- the exact
    quantity Figure 6(b) reports."""

    def test_reinserted_keys_do_not_count_again(self):
        table = SimulatedHashTable(initial_capacity=256)
        table.insert_stream(np.array([1, 2, 3]))
        table.insert_stream(np.array([1, 2, 3]))
        assert table.distinct == 3

    def test_overlapping_blocks_match_one_concatenated_insert(self):
        keys = np.arange(10_000)
        blocks = [keys[:6_000], keys[4_000:8_000], keys[2_000:]]

        streamed = SimulatedHashTable(initial_capacity=256, load_factor=0.5)
        for block in blocks:
            streamed.insert_stream(block)

        whole = SimulatedHashTable(initial_capacity=256, load_factor=0.5)
        whole.insert_stream(keys)

        assert streamed.distinct == whole.distinct == 10_000
        assert streamed.resize_count == whole.resize_count
        assert streamed.moved_entries == whole.moved_entries
        assert streamed.capacity == whole.capacity

    def test_fully_repeated_blocks_never_resize_presized_table(self):
        block = np.arange(1_000)
        table = SimulatedHashTable(initial_capacity=4_096, load_factor=0.5)
        for _ in range(10):
            table.insert_stream(block)
        # The old implementation counted 10 * 1000 = 10_000 "new" keys and
        # resized a table whose keys never exceeded 1000.
        assert table.distinct == 1_000
        assert table.resize_count == 0
        assert table.moved_entries == 0

    def test_partial_overlap_counts_only_new_keys(self):
        table = SimulatedHashTable(initial_capacity=256)
        table.insert_stream(np.array([1, 2, 3, 4]))
        final = table.insert_stream(np.array([3, 4, 5, 6]))
        assert final == 6

    def test_per_block_streaming_resizes_at_the_same_thresholds(self):
        """Block-at-a-time insertion with duplicates inside and across
        blocks replays the same growth curve as the distinct totals."""
        rng = np.random.default_rng(7)
        table = SimulatedHashTable(initial_capacity=4, load_factor=0.5)
        seen: set[int] = set()
        for _ in range(20):
            block = rng.integers(0, 500, size=200)
            table.insert_stream(block)
            seen.update(block.tolist())
        reference = SimulatedHashTable(initial_capacity=4, load_factor=0.5)
        reference.insert_stream(np.arange(len(seen)))
        assert table.distinct == len(seen)
        assert table.resize_count == reference.resize_count
        assert table.moved_entries == reference.moved_entries


class TestPreSizingEffect:
    def test_good_estimate_eliminates_resizes(self):
        """The Figure 6(b) mechanism: an accurate NDV estimate pre-sizes the
        table and removes every resize a default-sized table would pay."""
        keys = np.arange(50_000)
        default = SimulatedHashTable(initial_capacity=256, load_factor=0.5)
        default.insert_stream(keys)
        presized = SimulatedHashTable(
            initial_capacity=int(50_000 / 0.5), load_factor=0.5
        )
        presized.insert_stream(keys)
        assert default.resize_count >= 8
        assert presized.resize_count == 0
        assert presized.moved_entries == 0

    def test_underestimate_still_reduces_resizes(self):
        keys = np.arange(10_000)
        default = SimulatedHashTable(initial_capacity=256, load_factor=0.5)
        default.insert_stream(keys)
        underestimated = SimulatedHashTable(initial_capacity=5_000, load_factor=0.5)
        underestimated.insert_stream(keys)
        assert 0 < underestimated.resize_count < default.resize_count

    @given(st.integers(1, 100_000), st.integers(1, 1 << 16))
    @settings(max_examples=60, deadline=None)
    def test_final_capacity_accommodates_distinct(self, distinct, initial):
        table = SimulatedHashTable(initial_capacity=initial, load_factor=0.5)
        table.insert_stream(np.arange(distinct))
        assert table.capacity * table.load_factor >= table.distinct or (
            table.distinct <= table.capacity * table.load_factor + 1
        )
        assert table.distinct == distinct

    @given(st.integers(0, 50_000))
    @settings(max_examples=40, deadline=None)
    def test_resize_count_is_logarithmic(self, distinct):
        table = SimulatedHashTable(initial_capacity=256, load_factor=0.5)
        table.insert_stream(np.arange(distinct))
        assert table.resize_count <= 32
