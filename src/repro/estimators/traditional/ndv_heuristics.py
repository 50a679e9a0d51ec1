"""Classical sample-extrapolation NDV estimators.

These are the "sample-based estimators [that] often rely on specific
heuristics or data assumptions" the paper contrasts RBX against:

* **GEE** (Charikar et al. 2000, "Towards estimation error guarantees for
  distinct values"): ``sqrt(N/n) * f1 + sum_{j>=2} f_j`` -- the
  guaranteed-error estimator;
* **linear scale-up**: ``d * N / n`` capped at ``N`` -- the naive baseline.
"""

from __future__ import annotations

import math

from repro.estimators.frequency import FrequencyProfile


def gee_estimate(profile: FrequencyProfile) -> float:
    """The GEE (guaranteed-error) estimator from a frequency profile."""
    d = profile.sample_distinct
    if d == 0:
        return 0.0
    if profile.sample_size <= 0:
        return 0.0
    scale = math.sqrt(
        max(1.0, profile.population_size / max(1, profile.sample_size))
    )
    f1 = float(profile.counts[0]) if profile.counts.size >= 1 else 0.0
    rest = float(d) - f1
    return min(scale * f1 + rest, float(profile.population_size))


def linear_scaleup_estimate(profile: FrequencyProfile) -> float:
    """Naive proportional extrapolation of the sample NDV."""
    d = profile.sample_distinct
    if d == 0 or profile.sample_size == 0:
        return 0.0
    estimate = d * profile.population_size / profile.sample_size
    return min(estimate, float(profile.population_size))
