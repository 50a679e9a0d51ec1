"""Configuration of the ByteCard framework."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ByteCardConfig:
    """Knobs of the framework's lifecycle components."""

    # -- training (ModelForge) ----------------------------------------
    #: rows sampled per table for BN training (the service trains "on the
    #: online sampled data")
    training_sample_rows: int = 50_000
    #: FactorJoin join-bucket count (the paper's evaluation uses 200)
    join_bucket_count: int = 200
    #: maximum bins per non-join-key BN column
    max_bins: int = 64
    #: RBX routine-training corpus size / epochs
    rbx_corpus_size: int = 3000
    rbx_epochs: int = 40

    # -- loading (Model Loader) ---------------------------------------
    #: refuse any single model blob larger than this (the size checker's
    #: per-model rule: one table's model must not hog memory)
    max_model_bytes: int = 16 * 1024 * 1024
    #: LRU-evict least-recently-used models beyond this total budget
    max_total_bytes: int = 256 * 1024 * 1024

    # -- monitoring (Model Monitor) ------------------------------------
    #: test queries generated per table when assessing a COUNT model
    monitor_queries_per_table: int = 20
    #: retain a model only if its monitored P90 Q-Error stays below this
    qerror_gate: float = 25.0
    #: per-column NDV Q-Error above which calibration fine-tuning triggers
    ndv_finetune_trigger: float = 5.0
    #: with a feedback log attached (:meth:`ModelMonitor.attach_feedback`),
    #: the fraction of a COUNT assessment's evidence budget served by
    #: observed runtime (estimate, actual) pairs instead of synthetic test
    #: queries -- free drift evidence from the execution path
    monitor_feedback_share: float = 0.5

    # -- RBX serving ----------------------------------------------------
    rbx_sample_rows: int = 20_000

    # -- observability (repro.obs) --------------------------------------
    #: record loader/monitor/serving/engine metrics into the framework's
    #: :class:`repro.obs.MetricsRegistry`; disabling hands out no-op
    #: metrics everywhere (near-zero overhead)
    enable_observability: bool = True
