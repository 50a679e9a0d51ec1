"""Configuration of the asynchronous model-lifecycle subsystem."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ForgeConfig:
    """Knobs of the forge scheduler, store, and retrain loop."""

    # -- scheduler ------------------------------------------------------
    #: background training workers (training is CPU-bound; keep this small
    #: so it cannot starve the serving tier); 0 starts none, and the owner
    #: runs due jobs with ``ForgeManager.run_ready`` (the stream soak)
    num_workers: int = 2
    #: attempts per job before it is marked FAILED (first run + retries)
    max_attempts: int = 3
    #: first retry delay; doubles per attempt (exponential backoff)
    backoff_base_s: float = 0.05
    #: backoff ceiling
    backoff_max_s: float = 5.0

    # -- artifact store -------------------------------------------------
    #: versions retained per (kind, name); older artifacts are pruned
    retention: int = 4

    # -- drift-triggered retraining -------------------------------------
    #: observed-error-mass thresholds (sum of log-Q-Error over the runtime
    #: feedback behind a failing assessment): at or above ``urgent`` the
    #: retrain preempts everything (URGENT), at or above ``high`` it takes
    #: the monitor path's usual HIGH; below, it queues as NORMAL -- a model
    #: failed by thin or mild evidence must not starve a badly broken one
    error_mass_high: float = 10.0
    error_mass_urgent: float = 40.0
    #: a monitor assessment whose p90 Q-Error grew by more than this factor
    #: over the previous assessment counts as *drifting* even if it still
    #: passes the gate, and schedules a proactive retrain
    drift_ratio: float = 4.0
