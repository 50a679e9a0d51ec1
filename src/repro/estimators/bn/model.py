"""The tree Bayesian network model for one table.

Bundles the per-column discretizers, the Chow-Liu structure, the learned
CPDs, and the frozen :class:`BNInferenceContext`.  Mirrors the paper's
Figure 4 model: each node is a table column, each edge a conditional
dependency captured by a 1-D (root) or 2-D CPD.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import EstimationError, TrainingError
from repro.estimators.bn.chow_liu import chow_liu_tree, mutual_information_matrix, select_root
from repro.estimators.bn.discretize import Discretizer
from repro.estimators.bn.inference import BNInferenceContext
from repro.estimators.bn.learning import learn_parameters
from repro.obs.metrics import MetricsRegistry
from repro.sql.query import TablePredicate
from repro.storage.table import Table
from repro.utils.lru import GenerationLRU


def new_evidence_cache(registry: MetricsRegistry | None = None) -> GenerationLRU:
    """A ``(context token, predicate) -> read-only bin-mask`` cache of 8192
    masks, mirrored as ``evidence_cache_*_total`` when given a registry."""
    return GenerationLRU(8192, registry, prefix="evidence_cache")


def _read_only_mask(discretizer: Discretizer, pred: TablePredicate) -> np.ndarray:
    mask = np.ascontiguousarray(discretizer.evidence(pred), dtype=np.float64)
    mask.setflags(write=False)
    return mask


@dataclass
class TreeBayesNet:
    """A trained single-table COUNT model."""

    table_name: str
    columns: tuple[str, ...]
    discretizers: dict[str, Discretizer]
    parents: np.ndarray
    cpds: list[np.ndarray]
    total_rows: int
    #: built by ``init_context`` (the paper's initContext); None until then
    context: BNInferenceContext | None = None

    # ------------------------------------------------------------------
    def init_context(self) -> BNInferenceContext:
        """Build (or return) the immutable inference context."""
        if self.context is None:
            self.context = BNInferenceContext.from_structure(self.parents, self.cpds)
        return self.context

    def column_index(self, column: str) -> int:
        try:
            return self.columns.index(column)
        except ValueError:
            raise EstimationError(
                f"BN for {self.table_name!r} does not model column {column!r}"
            ) from None

    @property
    def nbytes(self) -> int:
        """Serialized model size (CPDs + discretizer edges)."""
        return int(
            sum(c.nbytes for c in self.cpds)
            + sum(d.nbytes for d in self.discretizers.values())
            + self.parents.nbytes
        )

    # ------------------------------------------------------------------
    def evidence_for(
        self,
        predicate_lists: Sequence[Sequence[TablePredicate]],
        cache: GenerationLRU | None = None,
    ) -> list[np.ndarray]:
        """Per-node ``(bins, B)`` evidence matrices, one column per conjunction.

        With a ``cache`` (see :func:`new_evidence_cache`) each predicate's
        bin-mask is built once per model: keyed by ``(context token,
        predicate)``, so repeated predicates skip the per-bin loop and a
        replaced model never reads its predecessor's masks.
        """
        context = self.init_context()
        batch = len(predicate_lists)
        evidence = [np.ones((bins, batch)) for bins in context.bins]
        for b, predicates in enumerate(predicate_lists):
            for pred in predicates:
                if pred.table != self.table_name:
                    raise EstimationError(
                        f"predicate on {pred.table!r} given to BN of "
                        f"{self.table_name!r}"
                    )
                node = self.column_index(pred.column)
                discretizer = self.discretizers[pred.column]
                if cache is None:
                    mask = discretizer.evidence(pred)
                else:
                    mask = cache.get_or_create(
                        (context.token, pred),
                        lambda: _read_only_mask(discretizer, pred),
                    )
                evidence[node][:, b] *= mask
        return evidence

    def selectivities(
        self,
        predicate_lists: Sequence[Sequence[TablePredicate]],
        cache: GenerationLRU | None = None,
    ) -> np.ndarray:
        """P(all predicates) of every conjunction from one upward sweep.

        An empty conjunction is exactly 1.0 and takes no column of the
        sweep (all-ones evidence would return the CPDs' round-off instead).
        """
        filtered = [preds for preds in predicate_lists if preds]
        if not filtered:
            return np.ones(len(predicate_lists))
        swept = self.init_context().selectivities(self.evidence_for(filtered, cache))
        if len(filtered) == len(predicate_lists):
            return swept  # the common case: nothing to scatter around
        out = np.ones(len(predicate_lists))
        out[[bool(preds) for preds in predicate_lists]] = swept
        return out

    def selectivity(self, predicates: Sequence[TablePredicate]) -> float:
        """P(all predicates) under the model."""
        return float(self.selectivities([predicates])[0])

    def beliefs_for(
        self, predicates: Sequence[TablePredicate]
    ) -> tuple[list[np.ndarray], float]:
        """All per-column joint vectors plus P(predicates) in ONE sweep.

        ``beliefs[i][c] = P(column_i in bin c, predicates)`` and the float is
        the conjunction's selectivity (the root belief total).
        """
        beliefs, probabilities = self.init_context().beliefs(
            self.evidence_for([predicates])
        )
        return [matrix[:, 0] for matrix in beliefs], float(probabilities[0])

    def distribution(
        self, column: str, predicates: Sequence[TablePredicate]
    ) -> np.ndarray:
        """``P(column in bin, predicates)`` over the column's bins.

        This is the marginal FactorJoin consumes: when ``column`` is a join
        key discretized on join-bucket boundaries, the result is the
        filtered per-bucket probability mass.
        """
        beliefs, _probability = self.beliefs_for(predicates)
        return beliefs[self.column_index(column)]


def fit_tree_bn(
    table: Table,
    columns: list[str],
    max_bins: int = 64,
    bucket_edges: dict[str, np.ndarray] | None = None,
    sample_rows: int | None = None,
    rng: np.random.Generator | None = None,
    smoothing: float = 0.1,
) -> TreeBayesNet:
    """Train a tree BN over ``columns`` of ``table``.

    Parameters
    ----------
    bucket_edges:
        Join-bucket boundaries per join-key column: those columns are
        discretized on exactly these edges so that FactorJoin's buckets and
        the BN's bins coincide.
    sample_rows:
        Train on a uniform sample of this many rows (the ModelForge trains
        on "online sampled data"); ``None`` uses the whole table.
    """
    if not columns:
        raise TrainingError(f"no columns selected for BN of {table.name!r}")
    for column in columns:
        if not table.has_column(column):
            raise TrainingError(f"table {table.name!r} has no column {column!r}")
    bucket_edges = bucket_edges or {}

    training = table
    if sample_rows is not None and sample_rows < len(table):
        if rng is None:
            rng = np.random.default_rng(0)
        training = table.sample(sample_rows, rng)

    discretizers: dict[str, Discretizer] = {}
    binned_columns: list[np.ndarray] = []
    bin_counts: list[int] = []
    for column in columns:
        full_values = table.column(column).values
        edges = bucket_edges.get(column)
        disc = Discretizer(full_values, max_bins=max_bins, edges=edges)
        discretizers[column] = disc
        binned_columns.append(disc.bin_of(training.column(column).values))
        bin_counts.append(disc.num_bins)
    binned = np.stack(binned_columns, axis=1)

    if len(columns) == 1:
        parents = np.array([-1], dtype=np.int64)
    else:
        mi = mutual_information_matrix(binned, bin_counts)
        parents = chow_liu_tree(mi, root=select_root(mi))
    cpds = learn_parameters(binned, parents, bin_counts, smoothing=smoothing)

    model = TreeBayesNet(
        table_name=table.name,
        columns=tuple(columns),
        discretizers=discretizers,
        parents=parents,
        cpds=cpds,
        total_rows=len(table),
    )
    model.init_context()
    return model
