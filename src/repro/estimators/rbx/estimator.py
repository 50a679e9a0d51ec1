"""RBX NDV estimation inside the query path.

The Model Loader keeps a row sample per table (the paper's "small sample
(under 10 million rows) ... converted into a DataFrame format").  At query
time the estimator filters the sample with the query's predicates, builds
the *sample-profile* feature, and runs the network forward pass -- matrix
multiplications only, matching the paper's ``estimate`` interface.

Per-column calibrated weights can be installed so that fine-tuned
parameters "adjust and calibrate only the columns that have been identified
as problematic" while the universal checkpoint keeps serving everything
else.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.errors import EstimationError
from repro.estimators.base import NdvEstimator
from repro.estimators.frequency import frequency_profile
from repro.estimators.rbx.network import MLP
from repro.estimators.rbx.profile import clamp_estimate, rbx_features, target_to_ndv
from repro.sql.query import AggKind, CardQuery
from repro.storage.catalog import Catalog
from repro.storage.table import Table
from repro.utils.rng import derive_rng
from repro.workloads.predicates import table_mask

#: Default per-table sample size held in memory for featurization.
DEFAULT_SAMPLE_ROWS = 20_000


class RBXNdvEstimator(NdvEstimator):
    """The learned NDV estimator serving COUNT-DISTINCT queries."""

    name = "rbx"

    def __init__(
        self,
        catalog: Catalog,
        model: MLP,
        sample_rows: int = DEFAULT_SAMPLE_ROWS,
        seed: int = 11,
        samples: dict[str, Table] | None = None,
    ):
        """``samples`` hands in prebuilt per-table row samples (the Model
        Loader's); otherwise ``sample_rows`` rows per table are drawn."""
        self.catalog = catalog
        self.model = model
        #: calibrated weights installed per (table, column) by the Monitor
        self.calibrated: dict[tuple[str, str], MLP] = {}
        if samples is None:
            samples = {
                name: catalog.table(name).sample(
                    min(sample_rows, len(catalog.table(name))),
                    derive_rng(seed, "rbx-sample", name),
                )
                for name in catalog.table_names()
            }
        self._samples = samples

    # ------------------------------------------------------------------
    def sample_for(self, table: str) -> Table:
        try:
            return self._samples[table]
        except KeyError:
            raise EstimationError(f"no sample loaded for table {table!r}") from None

    def install_calibrated(self, table: str, column: str, model: MLP) -> None:
        """Install fine-tuned weights for one problematic column."""
        self.calibrated[(table, column)] = model

    def with_calibrated(
        self, table: str, column: str, model: MLP | None
    ) -> "RBXNdvEstimator":
        """A copy whose weights for one column are ``model`` (``None``: the
        universal checkpoint); this estimator is left as it is."""
        other = copy.copy(self)
        other.calibrated = dict(self.calibrated)
        other.calibrated.pop((table, column), None)
        if model is not None:
            other.install_calibrated(table, column, model)
        return other

    def model_for(self, table: str, column: str) -> MLP:
        return self.calibrated.get((table, column), self.model)

    # ------------------------------------------------------------------
    def estimate_ndv(self, query: CardQuery) -> float:
        if query.agg.kind is not AggKind.COUNT_DISTINCT:
            raise EstimationError("estimate_ndv requires COUNT DISTINCT")
        assert query.agg.table is not None and query.agg.column is not None
        table_name = query.agg.table
        column = query.agg.column
        sample = self.sample_for(table_name)
        mask = table_mask(sample, query)
        values = sample.column(column).values[mask]
        matched_fraction = float(mask.sum()) / max(1, len(sample))
        population = max(
            1, int(round(len(self.catalog.table(table_name)) * matched_fraction))
        )
        profile = frequency_profile(values, population_size=population)
        if profile.sample_size == 0:
            return 1.0
        network = self.model_for(table_name, column)
        raw = target_to_ndv(float(network.forward(rbx_features(profile))[0]))
        return clamp_estimate(raw, profile)

    def estimation_overhead(self, query: CardQuery) -> float:
        # Filtering the in-memory sample plus one tiny forward pass.  The
        # sample-profile computation is the dominant term, as the paper
        # notes when motivating its refinement.
        sample = self.sample_for(query.tables[0])
        return 5e-5 * len(sample) + 0.05

    def group_ndv(self, query: CardQuery) -> float:
        """Estimated distinct group-key combinations for a GROUP BY query.

        Used for hash-table pre-sizing: the per-key NDVs are estimated by
        RBX on the filtered sample of each key's table; multi-key NDV is
        estimated on the concatenated key sample directly.
        """
        if not query.group_by:
            raise EstimationError("query has no GROUP BY keys")
        estimates: list[float] = []
        by_table: dict[str, list[str]] = {}
        for table, column in query.group_by:
            by_table.setdefault(table, []).append(column)
        for table_name, columns in by_table.items():
            sample = self.sample_for(table_name)
            mask = table_mask(sample, query.single_table_subquery(table_name))
            if len(columns) == 1:
                values = sample.column(columns[0]).values[mask]
            else:
                # Combine key columns into one composite value stream.
                stacked = np.stack(
                    [sample.column(c).values[mask].astype(np.int64) for c in columns]
                )
                if stacked.shape[1] == 0:
                    estimates.append(1.0)
                    continue
                _uniq, inverse = np.unique(stacked, axis=1, return_inverse=True)
                values = inverse
            matched_fraction = float(mask.sum()) / max(1, len(sample))
            population = max(
                1,
                int(round(len(self.catalog.table(table_name)) * matched_fraction)),
            )
            profile = frequency_profile(values, population_size=population)
            if profile.sample_size == 0:
                estimates.append(1.0)
                continue
            network = self.model_for(table_name, columns[0])
            raw = target_to_ndv(float(network.forward(rbx_features(profile))[0]))
            estimates.append(clamp_estimate(raw, profile))
        # Keys on different tables multiply (bounded by the join size the
        # caller knows); same-table multi-key NDV was handled jointly above.
        result = 1.0
        for est in estimates:
            result *= est
        return max(1.0, result)
