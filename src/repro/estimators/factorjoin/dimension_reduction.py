"""Distribution-dimension reduction for multi-join-key tables.

A fact table with several join keys would require FactorJoin to maintain the
keys' joint bucket distribution, whose dimensionality grows multiplicatively.
The paper reduces it with "the same training procedure as the Chow-Liu
algorithm": a tree probabilistic structure over the join keys, so the joint
factorizes into pairwise conditionals.

In this reproduction the per-table BN already *contains* every join key as a
node of one Chow-Liu tree, so the reduction is structural: the joint of any
set of join keys factorizes along the tree.  This module exposes the two
pieces the framework and the ablation benchmarks use:

* :func:`join_key_tree` -- the Chow-Liu tree restricted to a table's join
  keys (which conditionals the factorization keeps);
* :func:`pairwise_bucket_joint` -- the exact pairwise bucket joint of two
  columns under the tree model, for validating the conditional-independence
  approximation used during propagation.
"""

from __future__ import annotations

import numpy as np

from repro.estimators.bn.chow_liu import chow_liu_tree, mutual_information_matrix
from repro.estimators.bn.model import TreeBayesNet
from repro.sql.query import TablePredicate
from repro.storage.table import Table


def join_key_tree(
    table: Table, join_keys: list[str], max_bins: int = 64
) -> dict[str, str | None]:
    """Chow-Liu tree over a table's join keys.

    Returns ``key -> parent key`` (``None`` for the root).  This is the
    causality structure FactorJoin keeps instead of the full joint.
    """
    if not join_keys:
        return {}
    if len(join_keys) == 1:
        return {join_keys[0]: None}
    from repro.estimators.bn.discretize import Discretizer

    binned_columns = []
    bin_counts = []
    for key in join_keys:
        disc = Discretizer(table.column(key).values, max_bins=max_bins)
        binned_columns.append(disc.bin_of(table.column(key).values))
        bin_counts.append(disc.num_bins)
    binned = np.stack(binned_columns, axis=1)
    mi = mutual_information_matrix(binned, bin_counts)
    parents = chow_liu_tree(mi, root=0)
    return {
        join_keys[i]: (join_keys[int(p)] if p >= 0 else None)
        for i, p in enumerate(parents)
    }


def pairwise_bucket_joint(
    model: TreeBayesNet,
    column_a: str,
    column_b: str,
    predicates: list[TablePredicate] | None = None,
) -> np.ndarray:
    """Exact ``P(a-bin, b-bin, predicates)`` matrix under the tree model.

    Computed by clamping column ``a`` to each of its bins in turn -- one
    evidence column per bin, all in one sweep -- and reading the marginal
    of ``b``; meant for offline validation.
    """
    context = model.init_context()
    index_a = model.column_index(column_a)
    bins_a = context.bin_count(index_a)
    base_evidence = model.evidence_for([predicates or []])
    evidence = [np.repeat(matrix, bins_a, axis=1) for matrix in base_evidence]
    evidence[index_a] = np.diag(base_evidence[index_a][:, 0])
    beliefs, _probabilities = context.beliefs(evidence)
    return np.ascontiguousarray(beliefs[model.column_index(column_b)].T)
