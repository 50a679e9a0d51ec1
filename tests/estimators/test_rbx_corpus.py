"""The synthetic RBX corpus is bitwise equal to the array-frequency draw.

The flat families (uniform, near-distinct) draw their sample counts from a
scalar frequency instead of a materialized frequency vector.  The oracle
below builds the frequency vector for every family; both must consume the
generator identically and produce identical corpora.
"""

import numpy as np
import pytest

from repro.estimators.rbx.training import (
    SyntheticColumn,
    SyntheticColumnSampler,
    _corpus_matrices,
)


def _oracle_frequencies(
    sampler: SyntheticColumnSampler, family: str, population: int
) -> np.ndarray:
    rng = sampler.rng
    if family == "near_distinct":
        ndv = max(1, int(population * rng.uniform(0.5, 1.0)))
    else:
        log_ndv = rng.uniform(np.log(10), np.log(max(11, population)))
        ndv = max(1, int(np.exp(log_ndv)))
    ndv = min(ndv, population)
    if family == "uniform":
        weights = np.ones(ndv)
    elif family == "zipf":
        skew = rng.uniform(0.3, 2.0)
        weights = np.arange(1, ndv + 1, dtype=np.float64) ** -skew
    elif family == "geometric":
        decay = rng.uniform(0.9, 0.9999)
        weights = decay ** np.arange(ndv, dtype=np.float64)
    else:  # near_distinct
        weights = np.ones(ndv)
    weights = weights / weights.sum()
    return np.maximum(
        1, np.round(weights * (population - ndv)).astype(np.int64) + 1
    )


def _oracle_draw(sampler: SyntheticColumnSampler) -> SyntheticColumn:
    rng = sampler.rng
    population = int(
        np.exp(rng.uniform(np.log(sampler.min_rows), np.log(sampler.max_rows)))
    )
    rate = float(
        np.exp(rng.uniform(np.log(sampler.min_rate), np.log(sampler.max_rate)))
    )
    if rng.random() < sampler.high_ndv_bias:
        family = "near_distinct"
    else:
        family = sampler.FAMILIES[rng.integers(len(sampler.FAMILIES))]
    frequencies = _oracle_frequencies(sampler, family, population)
    true_ndv = int(frequencies.size)
    sample_counts = rng.binomial(frequencies, rate)
    sample_counts = sample_counts[sample_counts > 0]
    profile = sampler._profile_from_counts(sample_counts, population)
    return SyntheticColumn(profile=profile, true_ndv=true_ndv)


def _corpora(count: int, seed: int, **kwargs):
    sampler = SyntheticColumnSampler(np.random.default_rng(seed), **kwargs)
    oracle = SyntheticColumnSampler(np.random.default_rng(seed), **kwargs)
    drawn = [sampler.draw() for _ in range(count)]
    expected = [_oracle_draw(oracle) for _ in range(count)]
    # Both generators must sit at the same stream position afterwards.
    assert sampler.rng.bit_generator.state == oracle.rng.bit_generator.state
    return drawn, expected


def _assert_bitwise_equal(drawn, expected):
    assert [ex.true_ndv for ex in drawn] == [ex.true_ndv for ex in expected]
    for got, want in zip(drawn, expected):
        assert got.profile.counts.tobytes() == want.profile.counts.tobytes()
        assert (
            got.profile.sample_size,
            got.profile.population_size,
            got.profile.tail_distinct,
            got.profile.tail_rows,
        ) == (
            want.profile.sample_size,
            want.profile.population_size,
            want.profile.tail_distinct,
            want.profile.tail_rows,
        )
    features, targets = _corpus_matrices(drawn)
    want_features, want_targets = _corpus_matrices(expected)
    assert features.tobytes() == want_features.tobytes()
    assert targets.tobytes() == want_targets.tobytes()


def test_routine_corpus_matches_array_draw():
    """The corpus ``train_rbx`` draws (3,000 columns at seed 9)."""
    _assert_bitwise_equal(*_corpora(3000, seed=9))


def test_fine_tune_corpus_matches_array_draw():
    """The near-distinct-heavy augmentation of calibration fine-tuning."""
    _assert_bitwise_equal(*_corpora(400, seed=10, high_ndv_bias=0.8))


@pytest.mark.parametrize(
    "min_rows,max_rows",
    [
        (1, 10),  # ndv is clamped to the population: every frequency is 1
        (1_000, 1_000),  # near-distinct constants of 1 and 2
        (2_000_000, 2_000_000),  # small uniform ndv: a large constant
    ],
)
@pytest.mark.parametrize("high_ndv_bias", [0.0, 1.0])
def test_edge_populations_match_array_draw(min_rows, max_rows, high_ndv_bias):
    _assert_bitwise_equal(
        *_corpora(
            12,
            seed=3,
            min_rows=min_rows,
            max_rows=max_rows,
            high_ndv_bias=high_ndv_bias,
        )
    )


@pytest.mark.parametrize(
    "family,population",
    [
        ("uniform", 5),  # ndv == population: every frequency is 1
        ("near_distinct", 1),  # ndv == population == 1
        ("near_distinct", 1_000),  # (population - ndv) / ndv < 1
        ("uniform", 2_000_000),  # small ndv: a large constant
    ],
)
def test_flat_frequency_is_the_oracles_repeated_value(family, population):
    values = []
    for seed in range(20):
        sampler = SyntheticColumnSampler(np.random.default_rng(seed))
        oracle = SyntheticColumnSampler(np.random.default_rng(seed))
        value, ndv = sampler._frequencies(family, population)
        expected = _oracle_frequencies(oracle, family, population)
        assert isinstance(value, int)
        assert ndv == expected.size <= population
        assert np.all(expected == value)
        values.append(value)
    if population == 2_000_000:
        assert max(values) > 10_000
    elif population == 1_000:
        assert set(values) == {1, 2}
    else:
        assert values == [1] * 20
