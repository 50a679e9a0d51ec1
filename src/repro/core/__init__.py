"""The ByteCard framework (the paper's Figure 2 architecture).

Modules map one-to-one onto the paper's components:

* :mod:`repro.core.engine`       -- the ``CardEstInferenceEngine`` abstraction
  (``loadModel`` / ``validate`` / ``initContext`` / ``featurizeSQLQuery`` /
  ``featurizeAST`` / ``estimate``) and its per-model implementations;
* :mod:`repro.core.modelforge`   -- the standalone ModelForge Service:
  isolated training, ingestion signals, RBX fine-tuning;
* :mod:`repro.core.loader`       -- the Model Loader: timestamp-based
  refresh, per-model size refusal, LRU eviction under a total budget;
* :mod:`repro.core.validator`    -- the Model Validator: size checker and
  health detector (DAG check for BNs, weight sanity for RBX);
* :mod:`repro.core.monitor`      -- the Model Monitor: auto-generated test
  queries, Q-Error gating with traditional fallback, fine-tune triggering;
* :mod:`repro.core.preprocessor` -- the Model Preprocessor: column
  selection, ML type mapping, join-pattern collection, join buckets;
* :mod:`repro.core.registry`     -- the cloud model store, simulated;
* :mod:`repro.core.bytecard`     -- the facade wiring everything together
  into an estimator suite the engine can use.

The asynchronous side of the lifecycle -- background training jobs, the
persistent versioned artifact store, and drift-triggered retraining --
lives in :mod:`repro.forge` and attaches via ``ByteCard.forge()`` /
``ByteCard.from_store()``.
"""

from repro.core.config import ByteCardConfig
from repro.core.registry import ModelRegistry, ModelRecord
from repro.core.engine import (
    CardEstInferenceEngine,
    BNInferenceEngine,
    RBXInferenceEngine,
)
from repro.core.validator import ModelValidator, ValidationReport
from repro.core.loader import ModelLoader
from repro.core.monitor import ModelMonitor, MonitorReport
from repro.core.preprocessor import ModelPreprocessor, PreprocessorInfo
from repro.core.modelforge import ModelForgeService
from repro.core.bytecard import ByteCard

__all__ = [
    "ByteCardConfig",
    "ModelRegistry",
    "ModelRecord",
    "CardEstInferenceEngine",
    "BNInferenceEngine",
    "RBXInferenceEngine",
    "ModelValidator",
    "ValidationReport",
    "ModelLoader",
    "ModelMonitor",
    "MonitorReport",
    "ModelPreprocessor",
    "PreprocessorInfo",
    "ModelForgeService",
    "ByteCard",
]
