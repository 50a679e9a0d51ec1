"""HyperLogLog sketches and the sketch-based NDV baseline.

Implements Flajolet et al.'s HyperLogLog with the standard small-range
(linear counting) correction.  The sketch-based NDV baseline precomputes
one HLL per column -- exactly what the paper criticizes: the precomputed
sketch cannot see the query's predicates, so filtered NDV estimates degrade
badly (it can only cap the whole-column NDV by an estimated row count).
"""

from __future__ import annotations

import numpy as np

from repro.errors import EstimationError
from repro.estimators.base import NdvEstimator
from repro.sql.query import AggKind, CardQuery
from repro.storage.catalog import Catalog


def _splitmix64(values: np.ndarray) -> np.ndarray:
    """Deterministic 64-bit mixing hash (SplitMix64 finalizer)."""
    x = values.astype(np.uint64)
    x = (x + np.uint64(0x9E3779B97F4A7C15)) & np.uint64(0xFFFFFFFFFFFFFFFF)
    x ^= x >> np.uint64(30)
    x = (x * np.uint64(0xBF58476D1CE4E5B9)) & np.uint64(0xFFFFFFFFFFFFFFFF)
    x ^= x >> np.uint64(27)
    x = (x * np.uint64(0x94D049BB133111EB)) & np.uint64(0xFFFFFFFFFFFFFFFF)
    x ^= x >> np.uint64(31)
    return x


class HyperLogLog:
    """HyperLogLog distinct-count sketch with ``2**precision`` registers."""

    def __init__(self, precision: int = 12):
        if not 4 <= precision <= 18:
            raise ValueError(f"precision must be in [4, 18], got {precision}")
        self.precision = precision
        self.num_registers = 1 << precision
        self.registers = np.zeros(self.num_registers, dtype=np.uint8)

    def add(self, values: np.ndarray) -> None:
        """Fold a batch of integer values into the sketch."""
        values = np.asarray(values)
        if values.size == 0:
            return
        hashed = _splitmix64(values.astype(np.int64).view(np.uint64))
        register_index = (hashed >> np.uint64(64 - self.precision)).astype(np.int64)
        remainder = hashed << np.uint64(self.precision)
        # rho: position of the leftmost 1-bit in the remaining bits, >= 1.
        remaining_bits = 64 - self.precision
        rho = np.full(values.shape, remaining_bits + 1, dtype=np.uint8)
        nonzero = remainder != 0
        if nonzero.any():
            # Leading zero count of the (64-bit shifted) remainder.
            bits = np.frompyfunc(lambda v: 64 - int(v).bit_length(), 1, 1)(
                remainder[nonzero]
            ).astype(np.int64)
            rho_nonzero = np.minimum(bits + 1, remaining_bits + 1)
            rho[nonzero] = rho_nonzero.astype(np.uint8)
        np.maximum.at(self.registers, register_index, rho)

    def estimate(self) -> float:
        """Current distinct-count estimate."""
        m = float(self.num_registers)
        alpha = 0.7213 / (1.0 + 1.079 / m)
        harmonic = float(np.sum(2.0 ** -self.registers.astype(np.float64)))
        raw = alpha * m * m / harmonic
        zeros = int(np.count_nonzero(self.registers == 0))
        if raw <= 2.5 * m and zeros > 0:
            return m * float(np.log(m / zeros))  # linear counting
        return raw


class SketchNdvEstimator(NdvEstimator):
    """Precomputed per-column HLL sketches (ByteHouse's original NDV path).

    The sketch is built once over the full column.  At query time the only
    predicate-awareness possible is capping the whole-column NDV by a crude
    filtered-row-count estimate -- which is why this baseline's Q-Error
    explodes on filtered NDV queries (paper Table 1, "NDV Est." row).
    """

    name = "sketch"

    def __init__(self, catalog: Catalog, precision: int = 12):
        self.catalog = catalog
        self._sketches: dict[tuple[str, str], HyperLogLog] = {}
        for table_name in catalog.table_names():
            table = catalog.table(table_name)
            for column_name in table.column_names():
                sketch = HyperLogLog(precision)
                sketch.add(table.column(column_name).values)
                self._sketches[(table_name, column_name)] = sketch

    def sketch(self, table: str, column: str) -> HyperLogLog:
        try:
            return self._sketches[(table, column)]
        except KeyError:
            raise EstimationError(f"no sketch for {table}.{column}") from None

    def estimate_ndv(self, query: CardQuery) -> float:
        if query.agg.kind is not AggKind.COUNT_DISTINCT:
            raise EstimationError("estimate_ndv requires COUNT DISTINCT")
        assert query.agg.table is not None and query.agg.column is not None
        full_ndv = self.sketch(query.agg.table, query.agg.column).estimate()
        table_rows = len(self.catalog.table(query.agg.table))
        if not query.predicates and not query.or_groups:
            return max(1.0, full_ndv)
        # The only cap available: assume predicates keep rows uniformly and
        # NDV cannot exceed the remaining row count.  With no histogram here,
        # apply the textbook magic selectivity of 1/3 per predicate.
        assumed_rows = table_rows * (1.0 / 3.0) ** len(query.all_predicates())
        return max(1.0, min(full_ndv, assumed_rows))

    def estimation_overhead(self, query: CardQuery) -> float:
        return 0.02  # reading a precomputed sketch is near-free
