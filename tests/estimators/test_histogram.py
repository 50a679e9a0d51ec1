"""Tests for equi-height histograms."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import EstimationError
from repro.estimators.traditional import EquiHeightHistogram
from repro.sql.query import PredicateOp, TablePredicate


def _pred(op, value):
    return TablePredicate("t", "c", op, value)


class TestConstruction:
    def test_empty_column_rejected(self):
        with pytest.raises(EstimationError):
            EquiHeightHistogram(np.array([]))

    def test_bad_bucket_count(self):
        with pytest.raises(ValueError):
            EquiHeightHistogram(np.arange(10), num_buckets=0)

    def test_counts_sum_to_rows(self):
        values = np.random.default_rng(0).integers(0, 100, 1000)
        hist = EquiHeightHistogram(values, num_buckets=16)
        assert hist.counts.sum() == 1000

    def test_equi_height_property(self):
        values = np.arange(1000)
        hist = EquiHeightHistogram(values, num_buckets=10)
        # Uniform data: each bucket holds roughly the same count.
        assert hist.counts.max() <= 2 * hist.counts.min()

    def test_constant_column(self):
        hist = EquiHeightHistogram(np.full(100, 7.0))
        assert hist.total_distinct == 1
        assert hist.selectivity(_pred(PredicateOp.EQ, 7.0)) == pytest.approx(1.0)


class TestSelectivity:
    @pytest.fixture(scope="class")
    def uniform(self):
        return EquiHeightHistogram(np.arange(10_000, dtype=np.float64), num_buckets=64)

    def test_eq_uniform(self, uniform):
        sel = uniform.selectivity(_pred(PredicateOp.EQ, 5000.0))
        assert sel == pytest.approx(1.0 / 10_000, rel=0.5)

    def test_eq_out_of_range(self, uniform):
        assert uniform.selectivity(_pred(PredicateOp.EQ, -5.0)) == 0.0
        assert uniform.selectivity(_pred(PredicateOp.EQ, 1e9)) == 0.0

    def test_le_half(self, uniform):
        sel = uniform.selectivity(_pred(PredicateOp.LE, 4999.5))
        assert sel == pytest.approx(0.5, abs=0.05)

    def test_ge_complementary(self, uniform):
        le = uniform.selectivity(_pred(PredicateOp.LE, 3000.0))
        gt = uniform.selectivity(_pred(PredicateOp.GT, 3000.0))
        assert le + gt == pytest.approx(1.0, abs=0.02)

    def test_between(self, uniform):
        sel = uniform.selectivity(_pred(PredicateOp.BETWEEN, (1000.0, 2000.0)))
        assert sel == pytest.approx(0.1, abs=0.03)

    def test_in_sums_equalities(self, uniform):
        sel = uniform.selectivity(_pred(PredicateOp.IN, (1.0, 2.0, 3.0)))
        assert sel == pytest.approx(3.0 / 10_000, rel=0.5)

    def test_ne_complement(self, uniform):
        eq = uniform.selectivity(_pred(PredicateOp.EQ, 10.0))
        ne = uniform.selectivity(_pred(PredicateOp.NE, 10.0))
        assert eq + ne == pytest.approx(1.0)

    def test_full_range_covers_everything(self, uniform):
        sel = uniform.selectivity(_pred(PredicateOp.LE, 9999.0))
        assert sel == pytest.approx(1.0, abs=0.01)

    @given(
        values=st.lists(st.integers(0, 1000), min_size=10, max_size=300),
        threshold=st.integers(-10, 1010),
    )
    @settings(max_examples=60, deadline=None)
    def test_range_estimate_close_on_arbitrary_data(self, values, threshold):
        arr = np.asarray(values, dtype=np.float64)
        hist = EquiHeightHistogram(arr, num_buckets=16)
        sel = hist.selectivity(_pred(PredicateOp.LE, float(threshold)))
        assert 0.0 <= sel <= 1.0

    def test_skewed_eq_hot_value(self):
        # 90% of rows share one value: EQ on it must be large.
        values = np.concatenate([np.zeros(900), np.arange(1, 101)])
        hist = EquiHeightHistogram(values, num_buckets=32)
        sel = hist.selectivity(_pred(PredicateOp.EQ, 0.0))
        assert sel > 0.5
