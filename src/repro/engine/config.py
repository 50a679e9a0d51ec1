"""Engine configuration and the simulated cluster setup (Table 4)."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EngineConfig:
    """Tunables of the execution engine and its cost model.

    Cost weights are abstract units; only their ratios matter for the
    normalized latency plots.  A block read from the (simulated) distributed
    file system is far more expensive than touching a tuple in memory,
    mirroring the storage/compute separation of the real system.
    """

    #: fraction-of-rows threshold under which the multi-stage reader wins
    #: (the paper's example threshold of 0.15, Section 5.1.2)
    reader_selectivity_threshold: float = 0.15
    #: column-order enumeration early-stops once the prefix selectivity
    #: exceeds this (Section 5.1.1's constrained enumeration)
    column_order_early_stop: float = 0.5
    #: hash tables start at this capacity when no estimate is available
    default_hash_capacity: int = 256
    hash_load_factor: float = 0.5
    #: ceiling on NDV-driven pre-sizing: a wildly overestimated group NDV
    #: must not allocate an arbitrarily large table up front (the waste is
    #: recorded in ``AggregationResult.presize_waste``)
    max_presize_capacity: int = 1 << 21
    #: safety cap on materialized intermediate join tuples
    max_intermediate_rows: int = 30_000_000
    #: join-order enumeration: "greedy" (smallest-next, linear) or "dp"
    #: (exact left-deep dynamic programming over connected subsets --
    #: affordable for the <= 8-way joins of the paper's workloads)
    join_order_strategy: str = "greedy"
    #: capture (fingerprint, estimated, actual) pairs into the session's
    #: :class:`repro.feedback.FeedbackLog` as a by-product of every scan
    #: and join -- the runtime evidence behind feedback-driven monitoring
    #: and observed-error-mass retrain priorities (off by default: the
    #: capture must stay opt-in and under 2% executor overhead)
    enable_feedback: bool = False

    # cost-model weights (abstract units)
    io_block_cost: float = 1.0
    #: later-stage block reads are non-contiguous on the distributed FS and
    #: cost more than a sequential full-column sweep -- the reason the
    #: multi-stage reader loses on non-selective predicates
    random_read_multiplier: float = 1.6
    cpu_tuple_cost: float = 0.0005
    join_tuple_cost: float = 0.001
    materialize_tuple_cost: float = 0.004
    resize_move_cost: float = 0.004
    agg_tuple_cost: float = 0.001


#: The paper's Table 4, reproduced as the *simulated* environment
#: description.  The reproduction runs in-process, so these rows describe
#: the simulation target rather than physical hardware.
CLUSTER_SETUP: list[tuple[str, str]] = [
    ("CPU", "Intel(R) Xeon(R) Gold 6230 (simulated; CPU @ 2.10GHz, 75 cores)"),
    ("Memory", "300 G (simulated)"),
    ("Network", "10Gbps Ethernet (simulated)"),
    ("OS", "Debian 9 (Linux Kernel 5.4.56) (simulated)"),
    ("Cache", "55M shared L3 cache (simulated)"),
    ("Server", "1"),
    ("Compute-Worker", "8 (simulated as one in-process engine)"),
    ("Ingestor-Worker", "8 (simulated by the ModelForge ingestion hooks)"),
]
