"""The ``repro bench`` perf gate: regression detection + CLI contract.

The contracts under test: ``check_regression`` compares every
``*_per_sec`` key and flags drops beyond the threshold;
``machine_mismatch`` refuses cross-machine (or quick-vs-full)
comparisons; and ``repro bench --check`` exits 0 on pass or skipped
comparison, 1 on regression, 2 on a missing/corrupt baseline.
"""

import copy
import json

import pytest

from cli_helpers import run_cli

from repro.bench import (
    check_regression,
    machine_metadata,
    machine_mismatch,
    render_check,
)


def _payload(**overrides):
    payload = {
        "schema": 2,
        "repro_version": "0.0.0",
        "python": "3.11.0",
        "quick": True,
        "machine": machine_metadata(),
        "workloads": {
            "engine_drain": {"events_per_sec": 1000, "wall_s": 0.1},
            "workload_batch": {
                "wall_s": 0.2, "ops_per_sec": 50000,
                "probe_ops_per_sec": 8000,
            },
            "sweep_quick": {"wall_s": 2.0},  # no gated key
        },
    }
    payload.update(overrides)
    return payload


# --------------------------- check_regression -------------------------
def test_identical_payloads_pass():
    payload = _payload()
    outcome = check_regression(payload, payload)
    assert not outcome["regressions"]
    assert len(outcome["compared"]) == 3  # every *_per_sec key, once


def test_drop_beyond_threshold_is_a_regression():
    baseline = _payload()
    current = copy.deepcopy(baseline)
    current["workloads"]["engine_drain"]["events_per_sec"] = 800  # -20%
    outcome = check_regression(current, baseline, threshold=0.15)
    assert [(r[0], r[1]) for r in outcome["regressions"]] == [
        ("engine_drain", "events_per_sec")
    ]
    assert "REGRESSION" in render_check(outcome)
    assert "FAIL" in render_check(outcome)


def test_drop_within_threshold_passes():
    baseline = _payload()
    current = copy.deepcopy(baseline)
    current["workloads"]["engine_drain"]["events_per_sec"] = 900  # -10%
    outcome = check_regression(current, baseline, threshold=0.15)
    assert not outcome["regressions"]
    assert "PASS" in render_check(outcome)


def test_workloads_present_on_only_one_side_are_ignored():
    baseline = _payload()
    baseline["workloads"]["retired_bench"] = {"ops_per_sec": 1}
    current = _payload()
    current["workloads"]["brand_new_bench"] = {"ops_per_sec": 1}
    outcome = check_regression(current, baseline)
    names = {entry[0] for entry in outcome["compared"]}
    assert "retired_bench" not in names
    assert "brand_new_bench" not in names


def test_non_throughput_keys_are_not_gated():
    baseline = _payload()
    current = copy.deepcopy(baseline)
    current["workloads"]["sweep_quick"]["wall_s"] = 100.0
    assert not check_regression(current, baseline)["regressions"]


# --------------------------- machine_mismatch -------------------------
def test_same_machine_same_sizes_is_comparable():
    assert machine_mismatch(_payload(), _payload()) is None


def test_cpu_count_difference_blocks_comparison():
    other = _payload()
    other["machine"] = dict(other["machine"], cpu_count=999)
    assert "cpu_count" in machine_mismatch(_payload(), other)


def test_jobs_difference_blocks_comparison():
    other = _payload()
    other["machine"] = dict(other["machine"], jobs=999)
    assert "jobs" in machine_mismatch(_payload(), other)


def test_quick_vs_full_blocks_comparison():
    assert "sizes" in machine_mismatch(_payload(), _payload(quick=False))


def test_missing_metadata_blocks_comparison():
    legacy = _payload()
    del legacy["machine"]  # schema-1 payloads predate machine metadata
    assert "metadata" in machine_mismatch(_payload(), legacy)


# ------------------------------ CLI gate ------------------------------
@pytest.fixture
def fake_bench(monkeypatch):
    """Pin run_bench to a canned payload so CLI tests run in ms."""
    import repro.bench as bench

    payload = _payload()
    monkeypatch.setattr(
        bench, "run_bench", lambda quick=False, progress=None: (
            copy.deepcopy(payload)
        )
    )
    return payload


def test_cli_check_passes_against_matching_baseline(tmp_path, fake_bench):
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(fake_bench))
    code, out = run_cli(
        "bench", "--quick", "--check", "--baseline", str(baseline),
        "--out", str(tmp_path / "bench.json"),
    )
    assert code == 0
    assert "PASS" in out


def test_cli_check_fails_on_synthetic_regression(tmp_path, fake_bench):
    inflated = copy.deepcopy(fake_bench)
    for workload in inflated["workloads"].values():
        for key in list(workload):
            if key.endswith("_per_sec"):
                workload[key] *= 1.3
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(inflated))
    code, out = run_cli(
        "bench", "--quick", "--check", "--baseline", str(baseline),
        "--out", str(tmp_path / "bench.json"),
    )
    assert code == 1
    assert "REGRESSION" in out


def test_cli_check_skips_cross_machine_baselines(tmp_path, fake_bench):
    foreign = copy.deepcopy(fake_bench)
    foreign["machine"] = dict(foreign["machine"], cpu_count=999)
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(foreign))
    code, out = run_cli(
        "bench", "--quick", "--check", "--baseline", str(baseline),
        "--out", str(tmp_path / "bench.json"),
    )
    assert code == 0
    assert "skipped" in out


def test_cli_check_missing_baseline_is_a_usage_error(tmp_path, fake_bench):
    code, out = run_cli(
        "bench", "--quick", "--check",
        "--baseline", str(tmp_path / "nope.json"),
        "--out", str(tmp_path / "bench.json"),
    )
    assert code == 2
    assert "no baseline" in out


def test_cli_check_corrupt_baseline_is_a_usage_error(tmp_path, fake_bench):
    baseline = tmp_path / "corrupt.json"
    baseline.write_text("{not json")
    code, out = run_cli(
        "bench", "--quick", "--check", "--baseline", str(baseline),
        "--out", str(tmp_path / "bench.json"),
    )
    assert code == 2
    assert "invalid baseline" in out


def test_obs_overhead_verdict_belongs_to_the_check(tmp_path, fake_bench):
    fake_bench["workloads"]["obs_overhead"] = {
        "wall_s": 1.0, "rounds": 12, "plain_s": 0.05, "observed_s": 0.06,
        "overhead_frac": 0.2, "events_per_sec": 1000,
    }
    # A plain bench run records the noisy sample and succeeds ...
    code, out = run_cli("bench", "--quick", "--out", str(tmp_path / "bench.json"))
    assert code == 0
    # ... and the gate fails it, whatever the machine shape.
    baseline = tmp_path / "baseline.json"
    for machine in (fake_bench["machine"], dict(fake_bench["machine"], cpu_count=999)):
        baseline.write_text(json.dumps(_payload(machine=machine)))
        code, out = run_cli(
            "bench", "--quick", "--check", "--baseline", str(baseline),
            "--out", str(tmp_path / "bench.json"),
        )
        assert code == 1
        assert "zero-overhead-when-off contract regressed" in out


def test_obs_overhead_within_noise_passes_the_check(tmp_path, fake_bench):
    fake_bench["workloads"]["obs_overhead"] = {
        "wall_s": 1.0, "rounds": 3, "plain_s": 0.05, "observed_s": 0.0515,
        "overhead_frac": 0.03, "events_per_sec": 1000,  # 3%, but 1.5 ms
    }
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(fake_bench))
    code, out = run_cli(
        "bench", "--quick", "--check", "--baseline", str(baseline),
        "--out", str(tmp_path / "bench.json"),
    )
    assert code == 0
    assert "PASS" in out


def test_cli_custom_threshold_changes_the_verdict(tmp_path, fake_bench):
    softer = copy.deepcopy(fake_bench)
    for workload in softer["workloads"].values():
        for key in list(workload):
            if key.endswith("_per_sec"):
                workload[key] *= 1.2  # -16.7% from current's view
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(softer))
    code, _ = run_cli(
        "bench", "--quick", "--check", "--baseline", str(baseline),
        "--threshold", "0.30", "--out", str(tmp_path / "bench.json"),
    )
    assert code == 0
    code, _ = run_cli(
        "bench", "--quick", "--check", "--baseline", str(baseline),
        "--threshold", "0.10", "--out", str(tmp_path / "bench.json"),
    )
    assert code == 1
