"""repro.forge -- the asynchronous model-lifecycle subsystem.

Three pieces close the paper's training loop end to end:

* :mod:`repro.forge.scheduler` -- a background training scheduler: priority
  job queue with per-``(kind, name)`` dedup/coalescing, a bounded worker
  pool, retry with exponential backoff, cancellation, and graceful drain;
* :mod:`repro.forge.store` -- a persistent artifact store: versioned
  on-disk model blobs written atomically with checksums, a JSON manifest,
  retention, rollback, and crash recovery that discards torn writes;
* :mod:`repro.forge.manager` -- the drift-triggered retrain loop: monitor
  assessments and ingestion signals become jobs, and every trained model
  flows store -> registry -> loader hot-swap -> a new model snapshot
  -> re-assessment without stalling a single query.

Entry points: ``ByteCard.forge(store_dir)`` builds a manager bound to a
running instance; ``ByteCard.from_store(bundle, store_dir)`` warm-starts a
fresh instance from disk with zero training calls.
"""

from repro.forge.config import ForgeConfig
from repro.forge.manager import ForgeJobResult, ForgeManager
from repro.forge.scheduler import (
    ForgeJob,
    JobPriority,
    JobState,
    TrainingScheduler,
)
from repro.forge.store import ArtifactRecord, ArtifactStore, RecoveryReport

__all__ = [
    "ArtifactRecord",
    "ArtifactStore",
    "ForgeConfig",
    "ForgeJob",
    "ForgeJobResult",
    "ForgeManager",
    "JobPriority",
    "JobState",
    "RecoveryReport",
    "TrainingScheduler",
]
