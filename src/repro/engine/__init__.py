"""The ByteHouse-lite execution engine.

A single-process columnar engine implementing exactly the decision points
the paper's optimizations touch:

* **readers** -- single-stage vs multi-stage early materialization, with
  block-granular I/O accounting (Sections 3.1.2 / 5.1);
* **join execution** -- hash joins in an optimizer-chosen order, with
  intermediate-size-driven CPU cost (Section 5.1.3);
* **aggregation** -- hash aggregation with capacity-doubling resize
  accounting and NDV-estimate-driven pre-sizing (Section 5.2);
* **cost model** -- deterministic latency in abstract cost units, including
  the cardinality estimator's own inference overhead (the term that makes
  the sample-based method lose Figure 5 despite decent Q-Errors).
"""

from repro.engine.config import EngineConfig, CLUSTER_SETUP
from repro.engine.hash_table import SimulatedHashTable
from repro.engine.readers import ReaderKind, ScanResult, single_stage_scan, multi_stage_scan
from repro.engine.partitioned import partitioned_scan
from repro.engine.aggregation import AggregationResult, hash_aggregate
from repro.engine.optimizer import Optimizer, PhysicalPlan
from repro.engine.executor import QueryResult, Executor
from repro.engine.session import EngineSession, EstimatorSuite
from repro.engine.explain import explain_plan, explain_result

__all__ = [
    "EngineConfig",
    "CLUSTER_SETUP",
    "SimulatedHashTable",
    "ReaderKind",
    "ScanResult",
    "single_stage_scan",
    "multi_stage_scan",
    "partitioned_scan",
    "AggregationResult",
    "hash_aggregate",
    "Optimizer",
    "PhysicalPlan",
    "QueryResult",
    "Executor",
    "EngineSession",
    "EstimatorSuite",
    "explain_plan",
    "explain_result",
]
