"""MSCN model: pooled set features -> MLP -> log cardinality."""

from __future__ import annotations

import numpy as np

from repro.errors import EstimationError, TrainingError
from repro.estimators.base import CountEstimator
from repro.estimators.rbx.network import MLP, AdamState
from repro.datasets.base import DatasetBundle
from repro.sql.featurize import QueryFeaturizer
from repro.sql.query import CardQuery
from repro.utils.rng import derive_rng
from repro.workloads.generator import WorkloadSpec, generate_workload
from repro.workloads.truth import true_count


class MSCNEstimator(CountEstimator):
    """A trained MSCN: featurizer plus regression network."""

    name = "mscn"

    def __init__(self, featurizer: QueryFeaturizer, network: MLP):
        self.featurizer = featurizer
        self.network = network

    def estimate_count(self, query: CardQuery) -> float:
        features = self.featurizer.featurize(query).pooled()
        log_card = float(self.network.forward(features[np.newaxis, :])[0])
        return float(max(np.expm1(np.clip(log_card, 0.0, 60.0)), 0.0))

    def selectivity(self, query: CardQuery) -> float:
        raise EstimationError("MSCN predicts cardinalities, not selectivities")

    @property
    def nbytes(self) -> int:
        return self.network.nbytes


def train_mscn(
    bundle: DatasetBundle,
    num_training_queries: int = 800,
    epochs: int = 50,
    batch_size: int = 64,
    learning_rate: float = 1e-3,
    hidden: tuple[int, ...] = (256, 256, 128),
    seed: int = 21,
) -> MSCNEstimator:
    """Train MSCN on a generated workload with executed true cardinalities.

    The expensive part -- deliberately reproduced -- is obtaining the
    training signal: every training query must be *executed* (here: counted
    exactly) to label it.  The paper notes its Table 3 numbers exclude even
    this labelling time; we include only the generation+featurization+fit
    time in ours and report labelling separately in the benchmark.
    """
    if num_training_queries <= 0:
        raise TrainingError("need a positive number of training queries")
    spec = WorkloadSpec(
        name=f"mscn-train-{bundle.name}",
        num_queries=num_training_queries,
        min_tables=1,
        max_tables=min(5, len(bundle.catalog.table_names())),
        max_predicates=4,
        aggregation_fraction=0.0,
        num_ndv_queries=0,
        max_true_cardinality=None,
        seed=seed,
    )
    workload = generate_workload(bundle, spec)
    featurizer = QueryFeaturizer(bundle.catalog)
    features = np.stack(
        [featurizer.featurize(q).pooled() for q in workload.queries]
    )
    targets = np.array(
        [
            np.log1p(workload.true_counts.get(q.name) or true_count(bundle.catalog, q))
            for q in workload.queries
        ]
    )
    network = MLP(features.shape[1], hidden=hidden, seed=seed)
    state = AdamState()
    rng = derive_rng(seed, "mscn-shuffle")
    n = features.shape[0]
    for _epoch in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            batch = order[start : start + batch_size]
            network.train_step(
                features[batch], targets[batch], state, learning_rate=learning_rate
            )
    return MSCNEstimator(featurizer, network)
