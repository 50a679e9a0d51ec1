"""The perf ledger: replay named workloads from SQL text to executed result.

    python3 benchmarks/ledger/run.py [--workload W] [--seed S] [--seconds N]
                                     [--trace {0,1}] [--quick] [--out F]

Without ``--workload`` every workload runs; without ``--trace`` each runs
twice: untraced for the end-to-end metrics, then traced for the per-layer
ones.  Every pass prints its metrics by name and unit, checks its outputs,
and ends with one JSON line: ``{"correct", "attempted", "failed",
"metrics"}``.  ``--out F`` appends the whole run to the ledger document
``F`` (what ``compare.py`` reads) and writes the traced spans beside it.

The benchmark claims no gain; it is the yardstick later changes are held to.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

LEDGER_DIR = Path(__file__).resolve().parent
SRC_DIR = LEDGER_DIR.parents[1] / "src"
if not (SRC_DIR / "repro").is_dir():
    sys.exit(f"ledger: the program under test is missing ({SRC_DIR}/repro)")
sys.path[:0] = [str(LEDGER_DIR), str(SRC_DIR)]

import driver  # noqa: E402
import harness  # noqa: E402
import layers  # noqa: E402
from spans import SpanRecorder, instrument_sql  # noqa: E402
from workloads import WORKLOADS, Stream, WorkloadDef, build_stream  # noqa: E402

#: share of a stream, right after the warm-up, whose results are checksummed;
#: small enough that every run gets through it whatever the machine's speed
CHECKSUM_SHARE = 0.10


def _checks(
    stream: Stream, warmup: driver.Replay, measured: driver.Replay, mismatches, checked
) -> dict:
    failures = warmup.failures + measured.failures + mismatches
    return {
        "attempted": warmup.attempted + measured.attempted,
        "failed": len(failures),
        "first_failures": [f"#{seq}: {what}" for seq, what in failures[:5]],
        "truth_checked": checked,
        "sql_hash": stream.sql_hash,
    }


def _record(workload, seed, trace, budget, stream, deployment, metrics, checks) -> dict:
    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "trace": trace,
        "budget": harness.config_echo(budget),
        "config": deployment.configs(),
        "arrivals": harness.config_echo(stream.arrival_config),
        "stream": {
            "length": len(stream),
            "warmup": harness.warmup_count(len(stream)),
            "templates": stream.templates,
            "templates_rejected": stream.templates_rejected,
            "templates_dropped_by_name": stream.templates_dropped_by_name,
            "variants_rejected": stream.variants_rejected,
        },
        "phases": deployment.phases,
        "metrics": metrics,
        "checks": checks,
    }


def run_untraced(workload: WorkloadDef, seed: int, budget: harness.Budget) -> dict:
    """End-to-end metrics: ``setup_reps`` full set-ups, the last one measured."""
    stream = build_stream(workload, seed)
    warm = harness.warmup_count(len(stream))
    setup_seconds = []
    for rep in range(budget.setup_reps):
        deployment, warmup, seconds = driver.set_up(workload, stream)
        setup_seconds.append(seconds)
        if rep < budget.setup_reps - 1:
            deployment.close()
    try:
        measured = driver.replay(deployment, stream, warm, len(stream), budget.seconds)
        rss_mb = deployment.rss_mb()
        results = {**warmup.results, **measured.results}
        checked, mismatches = driver.truth_mismatches(deployment, stream, results)
        failed = len(measured.failures) + sum(seq >= warm for seq, _ in mismatches)
        metrics = driver.end_to_end_metrics(
            stream, measured, failed, setup_seconds, rss_mb
        )
        checks = _checks(stream, warmup, measured, mismatches, checked)
        checksum_queries = warm + int(len(stream) * CHECKSUM_SHARE)
        checks["result_checksum"] = driver.result_checksum(results, 0, checksum_queries)
        checks["checksum_queries"] = checksum_queries
        checks["measured_queries"] = measured.attempted
        checks["stream_exhausted"] = measured.attempted == len(stream) - warm
        checks["correct"] = (
            checks["failed"] == 0 and checks["result_checksum"] is not None
        )
        return _record(workload, seed, 0, budget, stream, deployment, metrics, checks)
    finally:
        deployment.close()


def run_traced(
    workload: WorkloadDef, seed: int, budget: harness.Budget, spans_out: Path | None
) -> dict:
    """Per-layer metrics: an untraced reference, then the same queries traced."""
    stream = build_stream(workload, seed)
    warm = harness.warmup_count(len(stream))

    deployment, _, _ = driver.set_up(workload, stream)
    try:
        reference = driver.replay(
            deployment, stream, warm, len(stream), budget.seconds / 2
        )
    finally:
        deployment.close()
    covered = reference.covered()
    untraced_ms_per_query = reference.wall_s * 1e3 / max(1, reference.attempted)

    recorder = SpanRecorder()
    with instrument_sql(recorder):
        deployment, warmup, _ = driver.set_up(workload, stream, recorder)
        try:
            before = layers.read_counters(deployment)
            mark = time.perf_counter()
            traced = driver.replay(deployment, stream, warm, warm + covered)
            after = layers.read_counters(deployment)
            spans = [span for span in recorder.spans() if span.start >= mark]
            metrics = layers.per_layer_metrics(
                deployment, stream, traced, spans, before, after, untraced_ms_per_query
            )
            checked, mismatches = driver.truth_mismatches(
                deployment, stream, traced.results
            )
            checks = _checks(stream, warmup, traced, mismatches, checked)
            checks["checksum_queries"] = covered
            checks["result_checksum"] = driver.result_checksum(
                traced.results, warm, covered
            )
            checks["untraced_checksum"] = driver.result_checksum(
                reference.results, warm, covered
            )
            checks["correct"] = (
                checks["failed"] == 0
                and checks["result_checksum"] is not None
                and checks["result_checksum"] == checks["untraced_checksum"]
            )
            record = _record(
                workload, seed, 1, budget, stream, deployment, metrics, checks
            )
        finally:
            deployment.close()
    if spans_out is not None:
        write_spans(spans_out, spans)
    return record


def write_spans(path: Path, spans) -> None:
    """The measured part's spans as JSON lines, written once at the end."""
    index = {id(span): i for i, span in enumerate(spans)}
    with path.open("w") as out:
        for span in spans:
            parent = index.get(id(span.parent)) if span.parent else None
            row = [span.name, span.start, span.end, parent, span.query_id, span.tag]
            out.write(json.dumps(row) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="measured seconds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--quick", action="store_true", help="smoke run, ~10x shorter")
    parser.add_argument("--out", type=Path, help="ledger document to append to")
    args = parser.parse_args(argv)

    budget = harness.Budget.resolve(args.seconds, args.quick)
    names = [args.workload] if args.workload else list(WORKLOADS)
    traces = [args.trace] if args.trace is not None else [0, 1]
    results = []
    for name in names:
        for trace in traces:
            workload = WORKLOADS[name].scaled(budget.stream_divisor)
            if trace:
                spans_out = None
                if args.out is not None:
                    spans_out = args.out.with_suffix(f".{name}.spans.jsonl")
                record = run_traced(workload, args.seed, budget, spans_out)
            else:
                record = run_untraced(workload, args.seed, budget)
            results.append(record)
            harness.check_names(record["metrics"])
            checks = record["checks"]
            title = f"{name} seed={args.seed} trace={trace}: {workload.why}"
            print(harness.format_metrics(title, record["metrics"]))
            for failure in checks["first_failures"]:
                print(f"  FAILED {failure}")
            print(
                harness.contract_line(
                    checks["correct"],
                    checks["attempted"],
                    checks["failed"],
                    record["metrics"],
                ),
                flush=True,
            )
    if args.out is not None:
        run = {"harness": harness.machine_fingerprint(), "results": results}
        harness.append_run(args.out, run)
    return 0


if __name__ == "__main__":
    sys.exit(main())
