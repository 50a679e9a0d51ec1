"""Parameter learning for tree Bayesian networks.

The ModelForge Service learns CPDs with Expectation-Maximization on the
fixed Chow-Liu structure (paper Section 4.3).  On fully observed data EM
converges in a single M-step to the smoothed maximum-likelihood estimate;
the E-step matters when training rows have missing entries (``-1`` bin
codes), which happens when sampled ingestion batches carry NULLs.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TrainingError
from repro.estimators.bn.inference import BNInferenceContext

MISSING = -1


def _mle_counts(
    binned: np.ndarray,
    parents: np.ndarray,
    bin_counts: list[int],
    weights: np.ndarray | None = None,
) -> list[np.ndarray]:
    """Sufficient statistics (count tables) from fully observed rows."""
    d = binned.shape[1]
    tables: list[np.ndarray] = []
    for node in range(d):
        parent = int(parents[node])
        if parent < 0:
            counts = np.zeros(bin_counts[node], dtype=np.float64)
            if weights is None:
                np.add.at(counts, binned[:, node], 1.0)
            else:
                np.add.at(counts, binned[:, node], weights)
        else:
            counts = np.zeros((bin_counts[parent], bin_counts[node]), dtype=np.float64)
            if weights is None:
                np.add.at(counts, (binned[:, parent], binned[:, node]), 1.0)
            else:
                np.add.at(counts, (binned[:, parent], binned[:, node]), weights)
        tables.append(counts)
    return tables


def _normalize(tables: list[np.ndarray], smoothing: float) -> list[np.ndarray]:
    """Turn count tables into (conditional) probability tables.

    ``smoothing`` is the *total* pseudo-count budget per distribution (i.e.
    per CPD row), spread evenly over its cells -- so wide CPDs (many child
    bins) are not flattened more than narrow ones.
    """
    cpds: list[np.ndarray] = []
    for counts in tables:
        per_cell = smoothing / counts.shape[-1]
        smoothed = counts + per_cell
        if smoothed.ndim == 1:
            cpds.append(smoothed / smoothed.sum())
        else:
            row_sums = smoothed.sum(axis=1, keepdims=True)
            cpds.append(smoothed / row_sums)
    return cpds


def learn_parameters(
    binned: np.ndarray,
    parents: np.ndarray,
    bin_counts: list[int],
    smoothing: float = 0.1,
    max_em_iterations: int = 10,
    tolerance: float = 1e-4,
) -> list[np.ndarray]:
    """Learn CPDs on a fixed tree structure.

    Parameters
    ----------
    binned:
        ``(rows, columns)`` integer bin codes; :data:`MISSING` marks a
        missing entry.
    parents:
        Parent index per column (-1 for the root), as from
        :func:`repro.estimators.bn.chow_liu.chow_liu_tree`.
    bin_counts:
        Number of bins per column.
    smoothing:
        Laplace pseudo-count added to every cell.
    max_em_iterations / tolerance:
        EM budget, only exercised when missing entries exist.

    Returns the CPD list: a 1-D prior for the root, a ``(parent_bins,
    child_bins)`` matrix for every other node.
    """
    if binned.ndim != 2:
        raise TrainingError("binned data must be a 2-D matrix")
    rows, d = binned.shape
    if rows == 0:
        raise TrainingError("cannot learn parameters from zero rows")
    if d != parents.size or d != len(bin_counts):
        raise TrainingError("parents/bin_counts do not match the data width")

    observed_mask = binned != MISSING
    fully_observed = observed_mask.all(axis=1)
    complete = binned[fully_observed]
    if complete.shape[0] == 0:
        raise TrainingError("EM needs at least one fully observed row to start")

    cpds = _normalize(_mle_counts(complete, parents, bin_counts), smoothing)
    incomplete = binned[~fully_observed]
    if incomplete.shape[0] == 0:
        return cpds

    # EM over the incomplete rows.  For a tree with at most one missing
    # entry per row the posterior is exact and cheap; multi-missing rows are
    # handled with a mean-field single-variable update, which is a standard
    # and adequate approximation for the low NULL rates seen in practice.
    previous_loglike = -np.inf
    for _ in range(max_em_iterations):
        tables = _mle_counts(complete, parents, bin_counts)
        context = BNInferenceContext.from_structure(parents, cpds)
        loglike = 0.0
        for row in incomplete:
            filled, row_loglike = _expected_fill(row, bin_counts, context)
            loglike += row_loglike
            for node in range(d):
                parent = int(parents[node])
                if parent < 0:
                    tables[node] += filled[node]
                else:
                    tables[node] += np.outer(filled[parent], filled[node])
        cpds = _normalize(tables, smoothing)
        if abs(loglike - previous_loglike) < tolerance * max(1.0, abs(loglike)):
            break
        previous_loglike = loglike
    return cpds


def _expected_fill(
    row: np.ndarray,
    bin_counts: list[int],
    context: BNInferenceContext,
) -> tuple[list[np.ndarray], float]:
    """Posterior bin distribution of every variable for one row.

    Observed variables get a one-hot; missing variables get their posterior
    given the observed ones, computed by sum-product on the tree.
    """
    d = row.size
    evidence: list[np.ndarray] = []
    for node in range(d):
        if row[node] == MISSING:
            vec = np.ones((bin_counts[node], 1))
        else:
            vec = np.zeros((bin_counts[node], 1))
            vec[int(row[node])] = 1.0
        evidence.append(vec)
    beliefs, probabilities = context.beliefs(evidence)
    filled = []
    for node in range(d):
        belief = beliefs[node][:, 0]
        total = belief.sum()
        filled.append(belief / total if total > 0 else np.ones_like(belief) / belief.size)
    return filled, float(np.log(max(probabilities[0], 1e-300)))
