"""Traditional (non-learned) estimators: the paper's baselines.

* **sketch-based**: equi-height histograms composed Selinger-style
  (attribute independence + join uniformity) for COUNT, plus precomputed
  HyperLogLog sketches for NDV -- ByteHouse's original estimator;
* **sample-based**: uniform row samples evaluated at query time (the
  AnalyticDB-style comparator), for both COUNT and NDV;
* **heuristic NDV**: GEE and linear scale-up sample extrapolators.
"""

from repro.estimators.traditional.histogram import EquiHeightHistogram
from repro.estimators.traditional.selinger import SelingerEstimator
from repro.estimators.traditional.hyperloglog import HyperLogLog, SketchNdvEstimator
from repro.estimators.traditional.sampling import (
    SamplingCountEstimator,
    SamplingNdvEstimator,
)
from repro.estimators.traditional.ndv_heuristics import (
    gee_estimate,
    linear_scaleup_estimate,
)

__all__ = [
    "EquiHeightHistogram",
    "SelingerEstimator",
    "HyperLogLog",
    "SketchNdvEstimator",
    "SamplingCountEstimator",
    "SamplingNdvEstimator",
    "gee_estimate",
    "linear_scaleup_estimate",
]
