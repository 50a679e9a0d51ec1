"""Cardinality estimators: traditional baselines and learned models.

Sub-packages:

* :mod:`repro.estimators.traditional` -- Selinger-style histograms,
  HyperLogLog, and sampling (the paper's "sketch-based" and "sample-based"
  baselines);
* :mod:`repro.estimators.bn` -- tree-structured Bayesian networks
  (ByteCard's single-table COUNT model);
* :mod:`repro.estimators.factorjoin` -- FactorJoin join-size estimation on
  top of the per-table BNs (ByteCard's multi-table COUNT model);
* :mod:`repro.estimators.rbx` -- the RBX learned NDV estimator (ByteCard's
  COUNT-DISTINCT model);
* :mod:`repro.estimators.mscn` -- the MSCN query-driven baseline (Table 3);
* :mod:`repro.estimators.deepdb` -- a DeepDB-style SPN baseline (Table 3).

The estimator-facing contracts live in :mod:`repro.estimators.base`
(:class:`CountEstimator` -- the one interface the optimizer and serving
core speak -- and :class:`NdvEstimator`); :mod:`repro.estimators.ues`
holds the UES-style never-underestimate bound.
"""

from repro.estimators.base import CountEstimator, EstimateDetail, NdvEstimator
from repro.estimators.ues import UpperBoundEstimator

__all__ = [
    "CountEstimator",
    "EstimateDetail",
    "NdvEstimator",
    "UpperBoundEstimator",
]
