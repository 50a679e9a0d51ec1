"""compare.py verdicts on synthetic ledger documents."""

import compare
import harness

SPEC = {
    "workloads": [{"name": "w", "why": ""}],
    "end_to_end": [
        {"name": "plan_ms_p50", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "queries_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
    ],
}


def document(plan_values, qps_values, checksum="abc"):
    results = [
        {
            "workload": "w",
            "seed": 1,
            "trace": 0,
            "metrics": {
                "plan_ms_p50": {"value": plan, "unit": "ms"},
                "queries_per_s": {"value": qps, "unit": "1/s"},
            },
            "checks": {"sql_hash": "s", "result_checksum": checksum},
        }
        for plan, qps in zip(plan_values, qps_values)
    ]
    return {"schema": harness.SCHEMA, "claim": None, "runs": [{"results": results}]}


def verdicts(rows):
    return {row["metric"]: row["verdict"] for row in rows}


def test_within_bound_is_ok_and_direction_is_respected():
    rows = compare.compare(document([1.0], [100.0]), document([1.05], [95.0]), SPEC)
    assert verdicts(rows)["plan_ms_p50"] == "ok"
    assert verdicts(rows)["queries_per_s"] == "ok"
    # faster and higher-throughput is never a regression
    rows = compare.compare(document([1.0], [100.0]), document([0.5], [200.0]), SPEC)
    assert set(verdicts(rows).values()) == {"ok"}


def test_worse_than_the_bound_is_a_regression():
    rows = compare.compare(document([1.0], [100.0]), document([1.2], [80.0]), SPEC)
    assert verdicts(rows)["plan_ms_p50"] == "REGRESSION"
    assert verdicts(rows)["queries_per_s"] == "REGRESSION"


def test_spread_wider_than_the_bound_is_unresolved():
    noisy = [1.0, 1.4, 0.7, 1.3, 0.8, 1.2]
    rows = compare.compare(
        document(noisy, [100.0] * 6), document([2.0] * 6, [100.0] * 6), SPEC
    )
    assert verdicts(rows)["plan_ms_p50"] == "unresolved"
    assert verdicts(rows)["queries_per_s"] == "ok"


def test_a_changed_result_checksum_is_flagged():
    rows = compare.compare(
        document([1.0], [100.0], "abc"), document([1.0], [100.0], "xyz"), SPEC
    )
    assert verdicts(rows)["result_checksum[seed=1]"] == "CHANGED"


def test_main_exit_code(tmp_path, monkeypatch):
    import json

    monkeypatch.setattr(harness, "load_spec", lambda: SPEC)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(document([1.0], [100.0])))
    b.write_text(json.dumps(document([1.5], [100.0])))
    assert compare.main([str(a), str(a)]) == 0
    assert compare.main([str(a), str(b)]) == 1
