"""RBX training: synthetic distribution corpus and the two training modes.

*Routine training* draws columns from a family of synthetic frequency
distributions (uniform, Zipf of varying skew, geometric, near-distinct),
computes exact NDVs analytically, simulates Bernoulli row sampling, and fits
the network on (frequency-profile -> log NDV) pairs.  Because the features
are workload-independent, this single offline run serves every dataset
(paper: "one training process can serve a wide range of workloads").

*Calibration fine-tuning* (Section 5.2.2) resumes from the trained
checkpoint with a reduced learning rate and an asymmetric loss that
penalizes underestimation, over a corpus augmented with sampled data from
the problematic columns plus synthetic high-NDV columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import TrainingError
from repro.estimators.frequency import FrequencyProfile, frequency_profile
from repro.estimators.rbx.network import MLP, AdamState
from repro.estimators.rbx.profile import (
    PROFILE_LENGTH,
    RBX_FEATURE_DIM,
    ndv_to_target,
    rbx_features,
)


@dataclass(frozen=True)
class SyntheticColumn:
    """One synthetic training example."""

    profile: FrequencyProfile
    true_ndv: int


class SyntheticColumnSampler:
    """Draws synthetic columns with analytically known NDV.

    A column is a frequency vector over ``ndv`` distinct values summing to
    the population size; the sample's per-value counts are Binomial draws,
    so no rows are ever materialized and corpus generation is fast.  The
    flat families (uniform, near-distinct) give every value one frequency,
    so their vector is never built: the Binomial is drawn ``ndv`` times
    from that scalar, which consumes the generator exactly as the array
    form would.
    """

    FAMILIES = ("uniform", "zipf", "geometric", "near_distinct")

    def __init__(
        self,
        rng: np.random.Generator,
        min_rows: int = 1_000,
        max_rows: int = 2_000_000,
        min_rate: float = 0.002,
        max_rate: float = 0.2,
        high_ndv_bias: float = 0.0,
    ):
        if min_rows <= 0 or max_rows < min_rows:
            raise TrainingError("invalid population-size range")
        self.rng = rng
        self.min_rows = min_rows
        self.max_rows = max_rows
        self.min_rate = min_rate
        self.max_rate = max_rate
        #: probability of forcing a near-distinct (very high NDV) column;
        #: raised during calibration fine-tuning
        self.high_ndv_bias = high_ndv_bias

    # ------------------------------------------------------------------
    def draw(self) -> SyntheticColumn:
        rng = self.rng
        population = int(
            np.exp(rng.uniform(np.log(self.min_rows), np.log(self.max_rows)))
        )
        rate = float(
            np.exp(rng.uniform(np.log(self.min_rate), np.log(self.max_rate)))
        )
        if rng.random() < self.high_ndv_bias:
            family = "near_distinct"
        else:
            family = self.FAMILIES[rng.integers(len(self.FAMILIES))]
        frequencies, true_ndv = self._frequencies(family, population)
        sample_counts = rng.binomial(frequencies, rate, size=true_ndv)
        sample_counts = sample_counts[sample_counts > 0]
        profile = self._profile_from_counts(sample_counts, population)
        return SyntheticColumn(profile=profile, true_ndv=true_ndv)

    def _frequencies(
        self, family: str, population: int
    ) -> tuple[int | np.ndarray, int]:
        """Per-value frequencies (a scalar for the flat families) and NDV."""
        rng = self.rng
        if family == "near_distinct":
            ndv = max(1, int(population * rng.uniform(0.5, 1.0)))
        else:
            log_ndv = rng.uniform(np.log(10), np.log(max(11, population)))
            ndv = max(1, int(np.exp(log_ndv)))
        ndv = min(ndv, population)
        if family in ("uniform", "near_distinct"):
            # Every weight is 1/ndv; the float64 steps match the vector
            # path below, so this is bitwise each entry of a flat vector.
            weight = 1.0 / np.float64(ndv)
            return max(1, int(np.round(weight * (population - ndv))) + 1), ndv
        if family == "zipf":
            skew = rng.uniform(0.3, 2.0)
            weights = np.arange(1, ndv + 1, dtype=np.float64) ** -skew
        else:  # geometric
            decay = rng.uniform(0.9, 0.9999)
            weights = decay ** np.arange(ndv, dtype=np.float64)
        weights = weights / weights.sum()
        frequencies = np.maximum(
            1, np.round(weights * (population - ndv)).astype(np.int64) + 1
        )
        return frequencies, ndv

    @staticmethod
    def _profile_from_counts(
        sample_counts: np.ndarray, population: int
    ) -> FrequencyProfile:
        sample_size = int(sample_counts.sum())
        head = sample_counts[sample_counts <= PROFILE_LENGTH]
        tail = sample_counts[sample_counts > PROFILE_LENGTH]
        counts = np.bincount(head.astype(np.int64), minlength=PROFILE_LENGTH + 1)[1:]
        return FrequencyProfile(
            counts=counts.astype(np.int64),
            sample_size=sample_size,
            population_size=population,
            tail_distinct=int(tail.size),
            tail_rows=int(tail.sum()),
        )


# ---------------------------------------------------------------------------
# Training loops
# ---------------------------------------------------------------------------
def _corpus_matrices(
    examples: list[SyntheticColumn],
) -> tuple[np.ndarray, np.ndarray]:
    features = np.stack([rbx_features(ex.profile) for ex in examples])
    targets = np.array([ndv_to_target(ex.true_ndv) for ex in examples])
    return features, targets


def train_rbx(
    num_examples: int = 4000,
    epochs: int = 60,
    batch_size: int = 64,
    learning_rate: float = 1e-3,
    seed: int = 9,
    sampler: SyntheticColumnSampler | None = None,
) -> MLP:
    """Routine (from-scratch) training of the universal RBX model."""
    rng = np.random.default_rng(seed)
    if sampler is None:
        sampler = SyntheticColumnSampler(rng)
    examples = [sampler.draw() for _ in range(num_examples)]
    features, targets = _corpus_matrices(examples)
    model = MLP(RBX_FEATURE_DIM, seed=seed)
    state = AdamState()
    n = features.shape[0]
    for _epoch in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            batch = order[start : start + batch_size]
            model.train_step(
                features[batch], targets[batch], state, learning_rate=learning_rate
            )
    return model


def fine_tune_rbx(
    model: MLP,
    column_samples: list[tuple[FrequencyProfile, int]],
    epochs: int = 40,
    batch_size: int = 32,
    learning_rate: float = 1e-4,
    underestimation_penalty: float = 4.0,
    synthetic_augmentation: int = 400,
    seed: int = 10,
) -> MLP:
    """Calibration fine-tuning from the established checkpoint.

    ``column_samples`` are (frequency profile, true NDV) pairs drawn from
    the problematic columns (the Model Monitor collects these).  The corpus
    is augmented with synthetic high-NDV columns; training resumes from the
    given checkpoint with a reduced learning rate and the asymmetric loss.
    The input model is left untouched; a tuned copy is returned.
    """
    if not column_samples:
        raise TrainingError("fine-tuning requires at least one column sample")
    rng = np.random.default_rng(seed)
    sampler = SyntheticColumnSampler(rng, high_ndv_bias=0.8)
    examples = [sampler.draw() for _ in range(synthetic_augmentation)]
    features_list = [rbx_features(profile) for profile, _ in column_samples]
    targets_list = [ndv_to_target(ndv) for _, ndv in column_samples]
    aug_features, aug_targets = _corpus_matrices(examples)
    features = np.concatenate([np.stack(features_list), aug_features])
    targets = np.concatenate([np.array(targets_list), aug_targets])
    # Oversample the real problematic columns so they are not drowned out.
    repeat = max(1, synthetic_augmentation // max(1, len(column_samples)) // 4)
    features = np.concatenate([features] + [np.stack(features_list)] * repeat)
    targets = np.concatenate([targets] + [np.array(targets_list)] * repeat)

    tuned = model.clone()
    state = AdamState()
    n = features.shape[0]
    for _epoch in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            batch = order[start : start + batch_size]
            tuned.train_step(
                features[batch],
                targets[batch],
                state,
                learning_rate=learning_rate,
                underestimation_penalty=underestimation_penalty,
            )
    return tuned
