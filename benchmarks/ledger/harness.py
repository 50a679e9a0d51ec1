"""Shared timing, percentile and JSON-schema helpers of the perf ledger.

Everything the ledger's driver, tracer and comparison tool agree on lives
here: how a percentile is computed and when it may be reported, what one
metric / one run / one ledger document looks like, what identifies the
machine a number was measured on, and the single ``--quick`` switch.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import re
import sys
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parents[1]
SPEC_PATH = REPO_ROOT / "BENCHMARK.json"
#: scratch space inside the checkout (fleet artifact stores); gitignored
WORK_DIR = REPO_ROOT / ".bench_build" / "ledger"

SCHEMA = "bytecard-ledger/1"
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: a percentile is reported only with at least this many samples beyond it
SAMPLES_BEYOND = 10
#: the percentiles the ledger may report, lowest first
PERCENTILE_LADDER = (0.5, 0.9, 0.99)
#: share of every stream that warms caches and is excluded from timing
WARMUP_SHARE = 0.10


def load_spec() -> dict:
    """The benchmark's contract (``BENCHMARK.json`` at the repo root)."""
    return json.loads(SPEC_PATH.read_text())


# ---------------------------------------------------------------------------
# Percentiles
# ---------------------------------------------------------------------------
def percentile(
    values: Sequence[float], q: float, weights: Sequence[float] | None = None
) -> float:
    """The ``q``-quantile (``q`` in [0, 1]) of weighted samples; 0.0 when empty.

    Each sample sits at the midpoint of its share of the total weight and the
    quantile is interpolated linearly between neighbours (Hazen's rule when
    the weights are equal).
    """
    if len(values) == 0:
        return 0.0
    data = np.asarray(values, dtype=np.float64)
    mass = np.ones_like(data) if weights is None else np.asarray(weights, np.float64)
    order = np.argsort(data, kind="stable")
    data, mass = data[order], mass[order]
    midpoints = (np.cumsum(mass) - 0.5 * mass) / mass.sum()
    return float(np.interp(q, midpoints, data))


def balanced_weights(strata: Sequence[object]) -> list[float]:
    """Weights that give every stratum the same total mass.

    Arrivals draw templates at random, so one seed sees a heavy template 25
    times and the next seed 12 times; weighting each sample by one over its
    template's count turns a percentile into the percentile of the mix the
    workload *defines* (every template equally likely) instead of the mix
    one seed happened to draw.
    """
    counts: dict[object, int] = {}
    for stratum in strata:
        counts[stratum] = counts.get(stratum, 0) + 1
    return [1.0 / counts[stratum] for stratum in strata]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the ``q``-quantile."""
    return int(n * (1.0 - q) + 1e-9)


def supported(n: int, q: float) -> bool:
    """The guide's rule: report ``q`` only with >= 10 samples beyond it."""
    return samples_beyond(n, q) >= SAMPLES_BEYOND


def highest_supported(n: int) -> float:
    """The highest ladder percentile ``n`` samples support (at least p50)."""
    best = PERCENTILE_LADDER[0]
    for q in PERCENTILE_LADDER:
        if supported(n, q):
            best = q
    return best


def tail(
    values: Sequence[float], weights: Sequence[float] | None = None
) -> tuple[float, float]:
    """``(q, value)`` of the highest percentile the sample supports."""
    q = highest_supported(len(values))
    return q, percentile(values, q, weights)


def warmup_count(stream_length: int) -> int:
    """Queries of a stream's warm-up prefix (the cut is always >= 1)."""
    return max(1, int(stream_length * WARMUP_SHARE))


# ---------------------------------------------------------------------------
# The --quick switch
# ---------------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class Budget:
    """How much one invocation measures; ``--quick`` is the only shortcut."""

    #: seconds the measured part of one workload runs
    seconds: float
    #: full set-ups per run; ``setup_s`` is their median
    setup_reps: int
    #: divisor applied to every stream length
    stream_divisor: int

    @classmethod
    def resolve(cls, seconds: float | None, quick: bool) -> "Budget":
        if quick:
            return cls(seconds=seconds or 1.0, setup_reps=1, stream_divisor=10)
        spec_seconds = float(load_spec()["run_seconds"])
        return cls(seconds=seconds or spec_seconds, setup_reps=3, stream_divisor=1)


# ---------------------------------------------------------------------------
# Metrics, runs, documents
# ---------------------------------------------------------------------------
def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def check_names(names: Iterable[str]) -> None:
    """Every emitted name must be contract-safe: ``[A-Za-z0-9_.-]``, <= 64."""
    bad = [name for name in names if not NAME_RE.match(name)]
    if bad:
        raise ValueError(f"metric names outside [A-Za-z0-9_.-]: {bad}")


def contract_line(
    correct: bool, attempted: int, failed: int, metrics: dict[str, dict]
) -> str:
    """The one-line JSON result the benchmark driver reads from stdout."""
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": metrics,
        }
    )


def format_metrics(title: str, metrics: dict[str, dict]) -> str:
    """Every metric by name and unit, one per line."""
    width = max((len(name) for name in metrics), default=0)
    lines = [title]
    for name, entry in metrics.items():
        lines.append(f"  {name.ljust(width)}  {entry['value']:.6g} {entry['unit']}")
    return "\n".join(lines)


def _git_commit() -> str | None:
    """HEAD's commit id read from ``.git`` (no subprocess); None outside git."""
    git_dir = REPO_ROOT / ".git"
    try:
        head = (git_dir / "HEAD").read_text().strip()
        if not head.startswith("ref:"):
            return head
        ref = head.split(None, 1)[1]
        ref_file = git_dir / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git_dir / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_fingerprint() -> dict:
    """What a number must be read against: cores, interpreter, commit."""
    return {
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "commit": _git_commit(),
        "argv": sys.argv[1:],
    }


def config_echo(config) -> dict:
    """A dataclass config as plain JSON (the effective knobs of a run)."""
    return json.loads(json.dumps(dataclasses.asdict(config), default=str))


def append_run(path: Path, run: dict) -> None:
    """Append one run to the ledger document at ``path`` (created if absent).

    A document accumulates the runs of one code version, so
    ``compare.py`` can take medians and spreads over them.
    """
    document = {"schema": SCHEMA, "claim": None, "runs": []}
    if path.exists():
        document = json.loads(path.read_text())
        if document.get("schema") != SCHEMA:
            raise ValueError(f"{path} is not a {SCHEMA} document")
    document["runs"].append(run)
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Process memory
# ---------------------------------------------------------------------------
def rss_mb(pid: int | None = None) -> float:
    """Resident set size of one process in MB (0.0 when it is gone)."""
    try:
        status = Path(f"/proc/{pid or os.getpid()}/status").read_text()
    except OSError:
        return 0.0
    match = re.search(r"^VmRSS:\s+(\d+)\s+kB", status, re.MULTILINE)
    return int(match.group(1)) / 1024.0 if match else 0.0
