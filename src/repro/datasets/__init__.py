"""Synthetic dataset generators standing in for the paper's datasets.

The paper evaluates on IMDB (JOB-light schema), STATS (Stack Exchange
schema), and AEOLUS (an internal ByteDance ad-analytics workload).  Real IMDB
and STATS dumps are unavailable offline and AEOLUS is proprietary, so each
module generates a synthetic database with the same schema, the same join
graph, heavy Zipfian skew, cross-column correlations (which defeat
independence-assuming histograms), and skewed foreign-key fan-out (which
defeats the join-uniformity assumption).  See DESIGN.md's substitution table.
"""

from repro.datasets.base import DatasetBundle
from repro.datasets.imdb import make_imdb
from repro.datasets.stats import make_stats
from repro.datasets.aeolus import make_aeolus

__all__ = [
    "DatasetBundle",
    "make_imdb",
    "make_stats",
    "make_aeolus",
]
