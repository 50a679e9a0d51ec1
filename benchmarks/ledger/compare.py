"""Compare two ledger documents against the bounds in ``BENCHMARK.json``.

    python3 benchmarks/ledger/compare.py A.json B.json

``A`` is the parent, ``B`` the change; each holds one or more runs appended
by ``run.py --out``.  One row per workload x end-to-end metric: both
medians, how much worse ``B`` is as a share of ``A``, and a verdict --

* ``ok``          no worse than the metric's bound;
* ``REGRESSION``  worse by more than the bound;
* ``unresolved``  either side's own run-to-run spread (quartile distance
  over median) exceeds the bound, so the two cannot be told apart.

Result checksums of seeds present on both sides must match (``CHANGED``
otherwise: the program's outputs differ).  Exit code 1 on any REGRESSION
or CHANGED row, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import harness


def untraced_results(document: dict) -> list[dict]:
    if document.get("schema") != harness.SCHEMA:
        raise ValueError(f"not a {harness.SCHEMA} document")
    return [
        result
        for run in document["runs"]
        for result in run["results"]
        if result["trace"] == 0
    ]


def metric_values(results: list[dict]) -> dict[tuple[str, str], list[float]]:
    """``(workload, metric) -> values``, one per run."""
    values: dict[tuple[str, str], list[float]] = {}
    for result in results:
        for name, entry in result["metrics"].items():
            values.setdefault((result["workload"], name), []).append(entry["value"])
    return values


def spread(values: list[float]) -> float:
    """Quartile distance over median; 0.0 below four values (unknown)."""
    if len(values) < 4:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (quartiles[2] - quartiles[0]) / abs(middle) if middle else 0.0


def worsening(parent: float, change: float, better: str) -> float:
    """How much worse ``change`` is, as a share of ``parent`` (< 0: better)."""
    if parent == 0:
        return 0.0
    delta = (change - parent) / abs(parent)
    return delta if better == "lower" else -delta


def compare(parent: dict, change: dict, spec: dict) -> list[dict]:
    """One row per workload x end-to-end metric, plus checksum rows."""
    a_results, b_results = untraced_results(parent), untraced_results(change)
    a_values, b_values = metric_values(a_results), metric_values(b_results)
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in a_values or key not in b_values:
                continue
            a, b = a_values[key], b_values[key]
            worse = worsening(
                statistics.median(a), statistics.median(b), metric["better"]
            )
            widest = max(spread(a), spread(b))
            if widest > metric["bound"]:
                verdict = "unresolved"
            elif worse > metric["bound"]:
                verdict = "REGRESSION"
            else:
                verdict = "ok"
            rows.append(
                {
                    "workload": workload,
                    "metric": metric["name"],
                    "unit": metric["unit"],
                    "parent": statistics.median(a),
                    "change": statistics.median(b),
                    "runs": (len(a), len(b)),
                    "worse": worse,
                    "spread": widest,
                    "bound": metric["bound"],
                    "verdict": verdict,
                }
            )
    a_sums = {(r["workload"], r["seed"]): r["checks"] for r in a_results}
    for result in b_results:
        key = (result["workload"], result["seed"])
        if key not in a_sums:
            continue
        ours, theirs = result["checks"], a_sums[key]
        same = (
            ours["sql_hash"] == theirs["sql_hash"]
            and ours["result_checksum"] == theirs["result_checksum"]
            and ours["result_checksum"] is not None
        )
        rows.append(
            {
                "workload": result["workload"],
                "metric": f"result_checksum[seed={result['seed']}]",
                "verdict": "ok" if same else "CHANGED",
            }
        )
    return rows


def format_rows(rows: list[dict]) -> str:
    lines = [
        f"{'workload':14s} {'metric':28s} {'parent':>11s} {'change':>11s} "
        f"{'worse':>8s} {'spread':>7s} {'bound':>6s}  verdict"
    ]
    for row in rows:
        if "parent" not in row:
            lines.append(
                f"{row['workload']:14s} {row['metric']:28s} {'':47s} {row['verdict']}"
            )
            continue
        lines.append(
            f"{row['workload']:14s} {row['metric']:28s} {row['parent']:11.5g} "
            f"{row['change']:11.5g} {row['worse']:+8.1%} {row['spread']:7.1%} "
            f"{row['bound']:6.0%}  {row['verdict']} "
            f"(runs {row['runs'][0]}/{row['runs'][1]}, {row['unit']})"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    parent, change = (json.loads(Path(path).read_text()) for path in args)
    rows = compare(parent, change, harness.load_spec())
    print(format_rows(rows))
    bad = [row for row in rows if row["verdict"] in ("REGRESSION", "CHANGED")]
    unresolved = sum(row["verdict"] == "unresolved" for row in rows)
    print(f"{len(rows)} rows: {len(bad)} failing, {unresolved} unresolved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
