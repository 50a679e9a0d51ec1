"""The percentile rule, balanced weights and name checks of the harness."""

import json

import pytest

import harness


def test_percentile_of_equal_weights_interpolates_between_midpoints():
    values = list(range(1, 101))
    assert harness.percentile(values, 0.5) == pytest.approx(50.5)
    assert harness.percentile(values, 0.9) == pytest.approx(90.5)
    assert harness.percentile([], 0.5) == 0.0
    assert harness.percentile([7.0], 0.99) == 7.0


def test_percentile_is_order_insensitive():
    assert harness.percentile([3, 1, 2], 0.5) == harness.percentile([1, 2, 3], 0.5)


def test_a_percentile_needs_ten_samples_beyond_it():
    assert not harness.supported(99, 0.9)
    assert harness.supported(100, 0.9)
    assert not harness.supported(999, 0.99)
    assert harness.supported(1000, 0.99)
    assert harness.highest_supported(15) == 0.5
    assert harness.highest_supported(500) == 0.9
    assert harness.highest_supported(1000) == 0.99
    assert harness.highest_supported(100_000) == 0.99


def test_tail_reports_the_highest_supported_percentile():
    q, value = harness.tail(list(range(500)))
    assert q == 0.9 and value == pytest.approx(harness.percentile(range(500), 0.9))
    q, _ = harness.tail(list(range(20_000)))
    assert q == 0.99


def test_balanced_weights_give_every_stratum_the_same_mass():
    strata = ["a"] * 8 + ["b"] * 2
    weights = harness.balanced_weights(strata)
    assert sum(weights[:8]) == pytest.approx(sum(weights[8:]))
    # "a" is fast and over-drawn, "b" slow: the balanced median sits between
    # the two templates, the plain median inside the over-drawn one.
    values = [1.0] * 8 + [100.0] * 2
    assert harness.percentile(values, 0.5) == 1.0
    assert 1.0 < harness.percentile(values, 0.5, weights) < 100.0


def test_warmup_is_the_first_tenth():
    assert harness.warmup_count(2000) == 200
    assert harness.warmup_count(5) == 1


def test_quick_is_the_only_shortcut():
    quick = harness.Budget.resolve(None, quick=True)
    full = harness.Budget.resolve(None, quick=False)
    assert quick.stream_divisor == 10 and quick.setup_reps == 1
    assert full.stream_divisor == 1 and full.setup_reps >= 3
    assert full.seconds == harness.load_spec()["run_seconds"]
    assert harness.Budget.resolve(2.5, quick=False).seconds == 2.5


def test_names_outside_the_contract_alphabet_are_refused():
    harness.check_names(["plan_ms_p50", "serving.miss_us", "a-b"])
    with pytest.raises(ValueError):
        harness.check_names(["plan ms"])
    with pytest.raises(ValueError):
        harness.check_names(["x" * 65])


def test_append_run_accumulates_runs(tmp_path):
    path = tmp_path / "ledger.json"
    harness.append_run(path, {"results": []})
    harness.append_run(path, {"results": []})
    document = json.loads(path.read_text())
    assert document["schema"] == harness.SCHEMA
    assert document["claim"] is None
    assert len(document["runs"]) == 2
