"""Sample-based COUNT and NDV estimation (the AnalyticDB-style baseline).

A uniform row sample of each table is kept; at query time predicates are
evaluated on the samples and counts are scaled up.  Joins are estimated by
joining the *samples* (via the same weighted counting used for ground truth)
and scaling by the product of inverse sampling rates -- accurate for large
results, noisy for selective ones, and expensive per query: the estimation
overhead is proportional to sample rows touched, which is the effect behind
Figure 5's low-quantile results.
"""

from __future__ import annotations

import numpy as np

from repro.errors import EstimationError
from repro.estimators.base import CountEstimator, NdvEstimator
from repro.estimators.frequency import frequency_profile
from repro.estimators.traditional.ndv_heuristics import gee_estimate
from repro.sql.query import AggKind, CardQuery
from repro.storage.catalog import Catalog
from repro.storage.table import Table
from repro.utils.rng import derive_rng
from repro.workloads.predicates import table_mask


class _SampleStore:
    """Uniform per-table row samples shared by the two estimators."""

    def __init__(self, catalog: Catalog, rate: float, seed: int):
        if not 0.0 < rate <= 1.0:
            raise ValueError(f"sampling rate must be in (0, 1], got {rate}")
        self.catalog = catalog
        self.rate = rate
        self.samples: dict[str, Table] = {}
        self.rates: dict[str, float] = {}
        for table_name in catalog.table_names():
            table = catalog.table(table_name)
            want = max(1, int(len(table) * rate))
            rng = derive_rng(seed, "sample", table_name)
            sample = table.sample(want, rng)
            self.samples[table_name] = sample
            self.rates[table_name] = len(sample) / max(1, len(table))


class SamplingCountEstimator(CountEstimator):
    """COUNT estimation by evaluating predicates on uniform samples."""

    name = "sample"

    def __init__(self, catalog: Catalog, rate: float = 0.02, seed: int = 5):
        self._store = _SampleStore(catalog, rate, seed)
        self.catalog = catalog

    def selectivity(self, query: CardQuery) -> float:
        if not query.is_single_table():
            raise EstimationError("selectivity() is defined for single tables")
        sample = self._store.samples[query.tables[0]]
        if len(sample) == 0:
            return 0.0
        return float(table_mask(sample, query).sum()) / len(sample)

    def estimate_count(self, query: CardQuery) -> float:
        if query.is_single_table():
            table = query.tables[0]
            matched = float(
                table_mask(self._store.samples[table], query).sum()
            )
            return matched / self._store.rates[table]
        # Join the samples with exact weighted counting, then scale up.
        from repro.workloads.truth import true_count  # local import: no cycle at module load

        sample_catalog = Catalog()
        scale = 1.0
        for table in query.tables:
            sample_catalog.register(self._store.samples[table])
            scale /= self._store.rates[table]
        sampled_count = true_count(sample_catalog, query)
        if sampled_count == 0:
            # Nothing matched in the sample: report the smallest resolvable
            # cardinality instead of zero (the usual sample-estimator fix).
            return max(1.0, 0.5 * scale ** (1.0 / max(1, len(query.tables))))
        return sampled_count * scale

    def estimation_overhead(self, query: CardQuery) -> float:
        # Real-time predicate evaluation over every sampled row -- the
        # dominant term of this method's latency footprint.
        rows_touched = sum(len(self._store.samples[t]) for t in query.tables)
        return 8e-4 * rows_touched + 0.05 * len(query.joins)


class SamplingNdvEstimator(NdvEstimator):
    """NDV estimation from filtered samples via the GEE extrapolator."""

    name = "sample"

    def __init__(self, catalog: Catalog, rate: float = 0.02, seed: int = 5):
        self._store = _SampleStore(catalog, rate, seed)
        self.catalog = catalog

    def estimate_ndv(self, query: CardQuery) -> float:
        if query.agg.kind is not AggKind.COUNT_DISTINCT:
            raise EstimationError("estimate_ndv requires COUNT DISTINCT")
        assert query.agg.table is not None and query.agg.column is not None
        table = query.agg.table
        sample = self._store.samples[table]
        mask = table_mask(sample, query)
        values = sample.column(query.agg.column).values[mask]
        matched_fraction = float(mask.sum()) / max(1, len(sample))
        population = max(
            1, int(len(self.catalog.table(table)) * matched_fraction)
        )
        profile = frequency_profile(values, population_size=population)
        estimate = gee_estimate(profile)
        return max(1.0, estimate)

    def estimation_overhead(self, query: CardQuery) -> float:
        return 8e-4 * len(self._store.samples[query.tables[0]])
