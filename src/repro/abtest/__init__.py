"""A/B testing of estimation strategies.

:class:`ABHarness` plans a workload under two estimation strategies (any
:class:`~repro.estimators.base.CountEstimator`: a model, a chain, a router) and
emits a structured :class:`ABReport`: per-query plan-decision diffs
(join order, reader choice, partition pruning, column order) plus
Q-Error against true cardinalities.  ``benchmarks/bench_strategy_ab.py``
drives it over the reproduction workloads and writes the JSON report CI
uploads as an artifact.
"""

from repro.abtest.harness import ABHarness, ABReport, QueryDiff

__all__ = ["ABHarness", "ABReport", "QueryDiff"]
