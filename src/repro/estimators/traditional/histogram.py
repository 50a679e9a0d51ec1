"""Equi-height (equi-depth) histograms.

The workhorse of ByteHouse's original optimizer statistics: each bucket
holds (approximately) the same number of rows, with per-bucket distinct
counts for equality selectivity.  Also reused by FactorJoin's join-bucket
construction, mirroring the paper ("leveraging ... the equi-height
histograms in ByteHouse's optimizer").
"""

from __future__ import annotations

import numpy as np

from repro.errors import EstimationError
from repro.sql.query import PredicateOp, TablePredicate


def equi_height_edges(sorted_values: np.ndarray, num_buckets: int) -> np.ndarray:
    """Equi-height bucket edges with singleton buckets for heavy hitters.

    Edges are drawn from quantile positions of the sorted data.  A value
    spanning several quantile positions (a heavy hitter) would collapse
    those edges into one; instead it receives a *singleton bucket*
    ``[v, nextafter(v))`` -- exactly how production equi-height histograms
    keep skewed columns accurate.
    """
    positions = np.linspace(0, sorted_values.size - 1, num_buckets + 1)
    raw = sorted_values[positions.astype(np.int64)].astype(np.float64)
    edges: list[float] = []
    for index, value in enumerate(raw):
        duplicated = (index > 0 and raw[index - 1] == value) or (
            index + 1 < raw.size and raw[index + 1] == value
        )
        if not edges or value > edges[-1]:
            edges.append(float(value))
        if duplicated:
            bump = float(np.nextafter(value, np.inf))
            if bump > edges[-1]:
                edges.append(bump)
    if len(edges) < 2:
        edges.append(float(np.nextafter(edges[0], np.inf)))
    edges[-1] = float(np.nextafter(edges[-1], np.inf))
    return np.asarray(edges, dtype=np.float64)


class EquiHeightHistogram:
    """Equi-height histogram over one numeric column.

    Buckets are half-open ``[edges[i], edges[i+1])`` except the last, which
    is closed on the right.  Stores per-bucket row counts and distinct
    counts; selectivity math assumes uniformity within buckets.
    """

    def __init__(self, values: np.ndarray, num_buckets: int = 64):
        if num_buckets <= 0:
            raise ValueError(f"num_buckets must be positive, got {num_buckets}")
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            raise EstimationError("cannot build a histogram over an empty column")
        self.total_rows = int(values.size)
        sorted_values = np.sort(values)
        self.edges = equi_height_edges(sorted_values, num_buckets)
        self.num_buckets = self.edges.size - 1
        bucket_index = self._bucket_of(sorted_values)
        self.counts = np.bincount(bucket_index, minlength=self.num_buckets).astype(
            np.float64
        )
        # Per-bucket distinct counts.
        distinct = np.zeros(self.num_buckets, dtype=np.float64)
        uniques = np.unique(sorted_values)
        unique_buckets = self._bucket_of(uniques)
        np.add.at(distinct, unique_buckets, 1.0)
        self.distincts = np.maximum(distinct, 1.0)
        self.total_distinct = int(uniques.size)
        self.min_value = float(sorted_values[0])
        self.max_value = float(sorted_values[-1])

    # ------------------------------------------------------------------
    def _bucket_of(self, values: np.ndarray) -> np.ndarray:
        index = np.searchsorted(self.edges, values, side="right") - 1
        return np.clip(index, 0, self.num_buckets - 1)

    # ------------------------------------------------------------------
    # Selectivities (fractions of rows)
    # ------------------------------------------------------------------
    def selectivity(self, pred: TablePredicate) -> float:
        """Estimated fraction of rows satisfying ``pred``."""
        op = pred.op
        if op is PredicateOp.EQ:
            return self._eq_fraction(float(pred.value))  # type: ignore[arg-type]
        if op is PredicateOp.NE:
            return max(0.0, 1.0 - self._eq_fraction(float(pred.value)))  # type: ignore[arg-type]
        if op is PredicateOp.LT:
            return self._range_fraction(-np.inf, float(pred.value), high_open=True)  # type: ignore[arg-type]
        if op is PredicateOp.LE:
            return self._range_fraction(-np.inf, float(pred.value), high_open=False)  # type: ignore[arg-type]
        if op is PredicateOp.GT:
            return max(
                0.0,
                1.0 - self._range_fraction(-np.inf, float(pred.value), high_open=False),  # type: ignore[arg-type]
            )
        if op is PredicateOp.GE:
            return max(
                0.0,
                1.0 - self._range_fraction(-np.inf, float(pred.value), high_open=True),  # type: ignore[arg-type]
            )
        if op is PredicateOp.IN:
            return float(
                min(1.0, sum(self._eq_fraction(v) for v in pred.value))  # type: ignore[union-attr]
            )
        if op is PredicateOp.BETWEEN:
            low, high = pred.value  # type: ignore[misc]
            return self._range_fraction(float(low), float(high), high_open=False)
        raise EstimationError(f"unsupported predicate operator {op}")

    def _eq_fraction(self, value: float) -> float:
        if value < self.min_value or value > self.max_value:
            return 0.0
        bucket = int(self._bucket_of(np.array([value]))[0])
        # Uniform spread over the bucket's distinct values.
        return float(
            self.counts[bucket] / self.distincts[bucket] / self.total_rows
        )

    def _range_fraction(self, low: float, high: float, high_open: bool) -> float:
        """Fraction of rows with value in [low, high) or [low, high]."""
        if high < self.min_value or low > self.max_value:
            return 0.0
        covered = 0.0
        for bucket in range(self.num_buckets):
            b_lo = self.edges[bucket]
            b_hi = self.edges[bucket + 1]
            width = max(b_hi - b_lo, 1e-12)
            overlap_lo = max(low, b_lo)
            overlap_hi = min(high, b_hi)
            if overlap_hi < overlap_lo:
                continue
            fraction = min(1.0, (overlap_hi - overlap_lo) / width)
            covered += fraction * self.counts[bucket]
        return float(min(1.0, covered / self.total_rows))
