"""FactorJoin: join-size estimation on top of single-table BNs.

Following Wu et al. (SIGMOD 2023) as adapted by ByteCard: the offline phase
buckets the joint domain of each join-key equivalence class (equi-height,
200 buckets by default, built from the optimizer's histograms) and trains
per-table Bayesian networks whose join-key columns are discretized on those
bucket boundaries.  The online phase builds a factor graph from the query's
join conditions and propagates per-bucket distributions along it to bound
the join size -- with "almost no additional training overhead" beyond the
single-table models, which is the property Table 3 demonstrates.
"""

from repro.estimators.factorjoin.buckets import JoinBucketizer, JoinKeyClass
from repro.estimators.factorjoin.estimator import (
    SELECTIVITY_FLOOR,
    FactorJoinEstimator,
)
from repro.estimators.factorjoin.plans import (
    PassStats,
    PlanArtifactSource,
    PlanArtifacts,
    QueryInferencePlans,
    TableInferencePlan,
)

__all__ = [
    "JoinBucketizer",
    "JoinKeyClass",
    "FactorJoinEstimator",
    "SELECTIVITY_FLOOR",
    "PassStats",
    "PlanArtifacts",
    "PlanArtifactSource",
    "QueryInferencePlans",
    "TableInferencePlan",
]
