"""Workload subsystem: generators, traces, driver, sweep integration.

The contracts under test: every generator expands deterministically
under a fixed seed; phase composition concatenates deterministically;
a recorded trace replayed through the driver measures bit-identically
to the live run it captured; and the sweep layer validates ``workload``
axes up-front with the same listing-style errors topologies get.
"""

import json

import pytest

from cli_helpers import run_cli

from repro.config import fpga_system
from repro.experiments.spec import SpecError, SweepSpec
from repro.harness.experiments import run_experiment
from repro.workloads import (
    WORKLOADS,
    Workload,
    WorkloadDriver,
    WorkloadDriverError,
    WorkloadOp,
    WorkloadSchemaError,
    dump_trace,
    load_trace,
    parse_trace,
    phases,
    resolve_workload,
)


# ----------------------- generator determinism ------------------------
@pytest.mark.parametrize("name", WORKLOADS.names())
def test_generators_are_deterministic_under_fixed_seed(name):
    workload = resolve_workload(name)
    first = workload.ops(seed=42)
    second = workload.ops(seed=42)
    assert first == second
    assert first, f"workload {name} expanded to an empty stream"


def test_random_generators_vary_with_the_seed():
    for ref in ("uniform(64)", "zipf(64,1.2)", "rw-mix(64,0.5)"):
        workload = resolve_workload(ref)
        assert workload.ops(seed=1) != workload.ops(seed=2), ref


def test_sequential_stream_is_strided_reads():
    ops = resolve_workload("sequential(8,2)").ops(seed=0)
    assert [op.addr for op in ops] == [i * 2 * 64 for i in range(8)]
    assert all(op.kind == "read" for op in ops)


def test_pointer_chase_visits_without_immediate_repeats():
    ops = resolve_workload("pointer-chase(64,16)").ops(seed=3)
    assert len(ops) == 64
    assert all(a.addr != b.addr for a, b in zip(ops, ops[1:]))


def test_producer_consumer_shares_addresses_across_streams():
    ops = resolve_workload("producer-consumer(8,4)").ops(seed=0)
    writes = {op.addr for op in ops if op.kind == "write"}
    reads = {op.addr for op in ops if op.kind == "read"}
    assert writes == reads
    assert {op.stream for op in ops} == {0, 1}


def test_rw_mix_respects_the_read_fraction_extremes():
    assert all(
        op.kind == "read" for op in resolve_workload("rw-mix(32,1)").ops(seed=1)
    )
    assert all(
        op.kind == "write" for op in resolve_workload("rw-mix(32,0)").ops(seed=1)
    )


# ----------------------- phase composition ----------------------------
def test_phases_concatenates_parts_in_order():
    combo = phases(["sequential(4)", "sequential(2,3)"])
    ops = combo.ops(seed=9)
    assert len(ops) == 6
    assert [op.addr for op in ops[:4]] == [0, 64, 128, 192]
    assert [op.addr for op in ops[4:]] == [0, 3 * 64]


def test_phases_is_deterministic_and_seed_sensitive():
    combo = phases(["zipf(32,1.2)", "uniform(32)"])
    assert combo.ops(seed=5) == combo.ops(seed=5)
    assert combo.ops(seed=5) != combo.ops(seed=6)


def test_phases_rejects_empty_compositions():
    with pytest.raises(ValueError):
        phases([])


def test_mixed_is_a_registered_phase_composition():
    workload = resolve_workload("mixed(16)")
    assert "phases" in workload.params
    assert len(workload.ops(seed=1)) == 3 * 16


def test_workload_op_field_validation():
    with pytest.raises(WorkloadSchemaError):
        WorkloadOp("fetch", 0)
    with pytest.raises(WorkloadSchemaError):
        WorkloadOp("read", -64)
    with pytest.raises(WorkloadSchemaError):
        WorkloadOp("read", 0, size=0)


# ----------------------- traces ---------------------------------------
def test_trace_roundtrip_preserves_the_op_stream(tmp_path):
    workload = resolve_workload("mixed(8)")
    path = tmp_path / "mixed.jsonl"
    dump_trace(workload, seed=11, path=path)
    replayed = load_trace(path)
    assert replayed.ops(seed=0) == workload.ops(seed=11)
    # Replay ignores its seed: the recorded ops ARE the stream.
    assert replayed.ops(seed=123) == replayed.ops(seed=456)


def _valid_trace_text():
    return dump_trace(resolve_workload("sequential(3)"), seed=1)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda lines: [],  # empty file
        lambda lines: ["not json"] + lines[1:],
        lambda lines: [json.dumps(["header", "must", "be", "object"])] + lines[1:],
        lambda lines: [json.dumps({"schema": 99, "workload": "x", "seed": 1, "ops": 3})] + lines[1:],
        lambda lines: [json.dumps({"schema": 1, "workload": "", "seed": 1, "ops": 3})] + lines[1:],
        lambda lines: [json.dumps({"schema": 1, "workload": "x", "seed": 1, "ops": 3, "extra": 1})] + lines[1:],
        lambda lines: lines[:1] + ["{}"] + lines[2:],  # op not an array
        lambda lines: lines[:1] + ['["read",1]'] + lines[2:],  # wrong arity
        lambda lines: lines[:1] + ['["rmw",0,64,0,0]'] + lines[2:],  # bad kind
        lambda lines: lines[:1] + ['["read",-1,64,0,0]'] + lines[2:],  # bad addr
        lambda lines: lines[:-1],  # header count mismatch
    ],
)
def test_malformed_traces_raise_schema_error(corrupt):
    lines = _valid_trace_text().splitlines()
    text = "\n".join(corrupt(lines))
    with pytest.raises(WorkloadSchemaError):
        parse_trace(text, source="test.jsonl")


def test_load_trace_names_unreadable_files(tmp_path):
    with pytest.raises(WorkloadSchemaError) as err:
        load_trace(tmp_path / "missing.jsonl")
    assert "missing.jsonl" in str(err.value)


# ----------------------- driver + replay parity -----------------------
def test_record_replay_measurement_parity_on_lsu_system(tmp_path):
    driver = WorkloadDriver(fpga_system())
    live = driver.run("mixed(8)", topology="fanout-2", seed=21, streams=2)

    path = tmp_path / "trace.jsonl"
    dump_trace(resolve_workload("mixed(8)"), seed=21, path=path)
    replayed = driver.run(load_trace(path), topology="fanout-2", seed=99, streams=2)

    assert replayed.series == live.series
    assert replayed.to_dict()["series"] == live.to_dict()["series"]
    assert (replayed.ops, replayed.reads, replayed.writes) == (
        live.ops, live.reads, live.writes,
    )


def test_record_replay_measurement_parity_on_supernode(tmp_path):
    driver = WorkloadDriver(fpga_system())
    live = driver.run("producer-consumer(16,4)", topology="supernode-2host", seed=3)
    path = tmp_path / "trace.jsonl"
    dump_trace(resolve_workload("producer-consumer(16,4)"), seed=3, path=path)
    replayed = driver.run(load_trace(path), topology="supernode-2host", seed=8)
    assert replayed.series == live.series
    assert replayed.mode == live.mode == "supernode"


def test_driver_restripes_single_stream_workloads():
    driver = WorkloadDriver(fpga_system())
    measurement = driver.run("sequential(16)", topology="fanout-2", seed=1, streams=2)
    assert set(measurement.series["ops"]) == {"s0", "s1", "all"}
    assert measurement.series["ops"]["s0"] == 8.0
    # Multi-stream workloads keep their own mapping.
    shared = driver.run("producer-consumer(8,4)", topology="fanout-2", seed=1, streams=4)
    assert set(shared.series["ops"]) == {"s0", "s1", "all"}


def test_driver_runs_are_deterministic():
    driver = WorkloadDriver(fpga_system())
    a = driver.run("zipf(32,1.2)", topology="microbench", seed=4)
    b = driver.run("zipf(32,1.2)", topology="microbench", seed=4)
    assert a.to_dict() == b.to_dict()


def test_driver_rejects_undrivable_topologies():
    driver = WorkloadDriver(fpga_system())
    with pytest.raises(WorkloadDriverError) as err:
        driver.run("sequential(4)", topology="rpc")
    assert "rpc" in str(err.value)


def test_supernode_mode_drives_per_host_traffic():
    driver = WorkloadDriver(fpga_system())
    m = driver.run("producer-consumer(32,4)", topology="supernode-2host", seed=5)
    assert m.mode == "supernode"
    assert m.series["accesses"]["host0"] == 32.0
    assert m.series["accesses"]["host1"] == 32.0
    assert m.series["accesses"]["all"] == 64.0
    # Sharing ping-pong means fabric traffic actually flowed.
    assert m.series["remote_accesses"]["all"] > 0


# ----------------------- experiments + sweep axis ---------------------
def test_workload_mix_experiment_runs():
    result = run_experiment(
        "workload-mix", workload="zipf(32,1.2)", topology="fanout-2", streams=2
    )
    assert result.name == "workload-mix"
    assert result.series["counts"]["ops"] == 32.0
    assert "lat_median_ns" in result.series


def test_supernode_workload_experiment_runs():
    result = run_experiment(
        "supernode-workload", workload="producer-consumer(8,4)", hosts=2
    )
    assert result.name == "supernode-workload"
    assert result.series["counts"]["ops"] == 16.0
    assert "filter_rate" in result.series


def _sweep(workloads):
    return SweepSpec.from_dict(
        {
            "name": "wl",
            "experiments": [
                {
                    "experiment": "workload-mix",
                    "params": {"topology": "fanout-2"},
                    "grid": {"workload": workloads},
                }
            ],
        }
    )


def test_sweep_validates_workload_axes_up_front():
    _sweep(["sequential(16)", "zipf(16,1.2)", "mixed(8)"]).validate()


def test_sweep_rejects_unknown_workloads_with_listing_error():
    with pytest.raises(SpecError) as err:
        _sweep(["sequential(16)", "not-a-workload"]).validate()
    assert "not-a-workload" in str(err.value)
    assert "zipf" in str(err.value)


def test_sweep_rejects_malformed_workload_refs():
    with pytest.raises(SpecError):
        _sweep(["zipf(bad)"]).validate()


def test_workload_mix_preset_validates_and_expands():
    from repro.experiments import preset_sweep

    sweep = preset_sweep("workload-mix")
    sweep.validate()
    specs = sweep.expand()
    assert len(specs) == 6
    refs = {spec.params["workload"] for spec in specs}
    assert "mixed(64)" in refs  # the phase-composed member


# ----------------------- CLI ------------------------------------------
def test_cli_workload_list_and_show():
    code, out = run_cli("workload", "list")
    assert code == 0
    for name in WORKLOADS.names():
        assert name in out
    code, out = run_cli("workload", "show", "zipf(16,1.2)")
    assert code == 0
    assert "zipf(16,1.2)" in out and "16" in out


def test_cli_workload_show_rejects_unknown():
    code, out = run_cli("workload", "show", "nope")
    assert code == 2
    assert "unknown workload" in out


def test_cli_workload_record_replay_roundtrip(tmp_path):
    trace = tmp_path / "t.jsonl"
    code, out = run_cli(
        "workload", "record", "mixed(8)", "--seed", "7", "--out", str(trace)
    )
    assert code == 0 and trace.is_file()
    code_a, out_a = run_cli(
        "workload", "replay", str(trace), "--topology", "fanout-2", "--streams", "2"
    )
    code_b, out_b = run_cli(
        "workload", "replay", str(trace), "--topology", "fanout-2", "--streams", "2"
    )
    assert code_a == code_b == 0
    assert out_a == out_b  # replay is bit-identical run-over-run


def test_cli_workload_replay_accepts_live_references():
    code, out = run_cli("workload", "replay", "sequential(8)")
    assert code == 0
    assert "sequential(8)" in out


def test_cli_workload_record_requires_out():
    code, out = run_cli("workload", "record", "mixed(8)")
    assert code == 2
    assert "--out" in out


def test_cli_workload_replay_reports_missing_trace_files(tmp_path):
    # A path-shaped argument must fail as an unreadable trace, not be
    # misparsed as a workload reference.
    code, out = run_cli("workload", "replay", "mistyped.jsonl")
    assert code == 2
    assert "cannot read trace" in out
    code, out = run_cli("workload", "replay", str(tmp_path / "gone"))
    assert code == 2
    assert "cannot read trace" in out
