"""BENCHMARK.json is well-formed and the command emits exactly its names."""

import json
import subprocess
import sys

import pytest

import harness

SPEC = harness.load_spec()


def test_spec_has_exactly_the_contract_keys():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert SPEC["paths"] == ["benchmarks/ledger"]
    assert SPEC["command"][-1] == "benchmarks/ledger/run.py"
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128


def test_names_are_unique_and_contract_safe():
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in SPEC[key]
    ]
    assert len(names) == len(set(names))
    harness.check_names(names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_every_end_to_end_metric_has_unit_direction_and_bound():
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert metric["better"] in ("lower", "higher")
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}


@pytest.fixture(scope="module")
def quick_ledger(tmp_path_factory):
    """One ``--quick`` run of the whole ledger (all workloads, both passes)."""
    out = tmp_path_factory.mktemp("ledger") / "quick.json"
    command = [sys.executable, str(harness.LEDGER_DIR / "run.py")]
    done = subprocess.run(
        command + ["--quick", "--seed", "2", "--out", str(out)],
        capture_output=True, text=True, timeout=600, cwd=harness.REPO_ROOT,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(out.read_text()), done.stdout


def test_quick_finishes_all_four_workloads_correctly(quick_ledger):
    document, _ = quick_ledger
    assert document["claim"] is None
    (run,) = document["runs"]
    passes = {(r["workload"], r["trace"]) for r in run["results"]}
    assert passes == {(w["name"], t) for w in SPEC["workloads"] for t in (0, 1)}
    for result in run["results"]:
        assert result["checks"]["correct"], result["checks"]
        assert result["checks"]["failed"] == 0
        assert result["checks"]["truth_checked"] > 0


def test_emitted_names_and_units_match_the_spec_exactly(quick_ledger):
    document, stdout = quick_ledger
    expected = {
        0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
        1: {m["name"]: m["unit"] for m in SPEC["per_layer"]},
    }
    for result in document["runs"][0]["results"]:
        emitted = {n: e["unit"] for n, e in result["metrics"].items()}
        assert emitted == expected[result["trace"]], result["workload"]
    lines = [json.loads(l) for l in stdout.splitlines() if l.startswith("{")]
    assert len(lines) == 2 * len(SPEC["workloads"])
    for line in lines:
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["attempted"] >= 1


def test_layers_are_zero_where_the_workload_does_not_cross_them(quick_ledger):
    document, _ = quick_ledger
    traced = {
        r["workload"]: r["metrics"] for r in document["runs"][0]["results"] if r["trace"]
    }
    for name, metrics in traced.items():
        fleet = sum(v["value"] for k, v in metrics.items() if k.startswith("fleet."))
        loader = sum(v["value"] for k, v in metrics.items() if k.startswith("loader."))
        assert (fleet > 0) == (name == "fleet_mixed")
        assert (loader > 0) == (name == "churn_refresh")
        assert metrics["trace.accounted_share"]["value"] >= 0.9
