"""Workload generation and ground truth.

Builds the paper's three evaluation workloads -- JOB-Hybrid, STATS-Hybrid,
and AEOLUS-Online (Table 5) -- as sets of bound :class:`repro.sql.CardQuery`
objects over the synthetic datasets, and computes exact ground truth
(COUNT, NDV) for Q-Error evaluation.
"""

from repro.workloads.truth import true_count, true_ndv, true_group_ndv
from repro.workloads.generator import Workload, WorkloadSpec, generate_workload
from repro.workloads.definitions import (
    job_hybrid,
    stats_hybrid,
    aeolus_online,
)
from repro.workloads.statistics import WorkloadStatistics, compute_statistics

__all__ = [
    "true_count",
    "true_ndv",
    "true_group_ndv",
    "Workload",
    "WorkloadSpec",
    "generate_workload",
    "job_hybrid",
    "stats_hybrid",
    "aeolus_online",
    "WorkloadStatistics",
    "compute_statistics",
]
