"""Fault injection: plans, controller, degraded-mode runs, determinism.

The regression contract under test, in rising order of integration:

* schemas fail loudly naming the offending field (FaultSchemaError);
* plans round-trip through JSON bit-identically and register by name;
* the controller's window/flap/corrupt math is exact and matched
  events split from inert unmatched ones;
* strict mode preserves today's fail-loud semantics; the fault-free
  plan in degraded mode is bit-identical to a plain run;
* the same seed + plan reproduce a bit-identical degraded run, and a
  recorded trace replays identically under an active fault plan;
* the sweep layer validates ``fault`` axes up-front, and importing the
  faults package leaves ``repro run all`` byte-identical.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.config import system_by_name
from repro.faults import (
    FaultActiveError,
    FaultController,
    FaultEvent,
    FaultPlan,
    FaultSchemaError,
    RetryPolicy,
    UnknownFaultPlanError,
    corrupt_draw,
    dump_fault_plan,
    fault_plan_by_name,
    fault_plan_names,
    load_fault_plan,
    parse_fault_ref,
    register_fault_plan_file,
    resolve_fault_plan,
    validate_fault_ref,
)
from repro.workloads import WorkloadDriver

from cli_helpers import run_cli


def fpga_driver():
    return WorkloadDriver(system_by_name("fpga"))


# --------------------------- event schema ------------------------------
def test_event_unknown_kind_rejected():
    with pytest.raises(FaultSchemaError, match="kind must be one of"):
        FaultEvent("power_cut", "host0")


@pytest.mark.parametrize(
    "kwargs, field",
    [
        (dict(kind="host_down", target=""), "'target'"),
        (dict(kind="link_degrade", target="dev0", factor=2.0), "'target'"),
        (dict(kind="host_down", target="a--b"), "'target'"),
        (dict(kind="host_down", target="host0", at_ps=-1), "'at_ps'"),
        (dict(kind="host_down", target="host0", for_ps=0), "'for_ps'"),
        (dict(kind="link_degrade", target="a--b"), "'factor'"),
        (dict(kind="link_degrade", target="a--b", factor=0.5), "'factor'"),
        (dict(kind="host_down", target="host0", factor=2.0), "'factor'"),
        (dict(kind="link_flap", target="a--b", duty=0.5), "'period_ps'"),
        (
            dict(kind="link_flap", target="a--b", period_ps=0, duty=0.5),
            "'period_ps'",
        ),
        (
            dict(kind="link_flap", target="a--b", period_ps=10, duty=1.5),
            "'duty'",
        ),
        (dict(kind="msg_corrupt", target="a--b", rate=0.0), "'rate'"),
        (dict(kind="msg_corrupt", target="a--b", rate=2.0), "'rate'"),
    ],
)
def test_event_schema_errors_name_the_field(kwargs, field):
    with pytest.raises(FaultSchemaError, match=field):
        FaultEvent(**kwargs)


def test_event_windows_and_flap_phase():
    down = FaultEvent("host_down", "host0", at_ps=100, for_ps=50)
    assert not down.active_at(99)
    assert down.active_at(100) and down.active_at(149)
    assert not down.active_at(150)
    assert down.recovers_at_ps == 150

    flap = FaultEvent(
        "link_flap", "a--b", at_ps=0, for_ps=100, period_ps=10, duty=0.3
    )
    # Down for the first 3 ps of every 10 ps cycle.
    assert flap.active_at(0) and flap.active_at(2)
    assert not flap.active_at(3) and not flap.active_at(9)
    assert flap.active_at(10)
    assert not flap.active_at(100)

    forever = FaultEvent("msg_corrupt", "a--b", rate=0.5)
    assert forever.recovers_at_ps is None
    assert forever.active_at(10**12)


# ---------------------------- plan schema ------------------------------
def test_plan_rejects_non_object():
    with pytest.raises(FaultSchemaError, match="must be a JSON object"):
        FaultPlan.from_dict(["host_down"])


def test_plan_rejects_unknown_keys():
    with pytest.raises(FaultSchemaError, match="'faults'"):
        FaultPlan.from_dict({"name": "x", "faults": []})


def test_plan_requires_name():
    with pytest.raises(FaultSchemaError, match="'name'"):
        FaultPlan.from_dict({"events": []})


def test_plan_event_errors_name_the_index_and_field():
    with pytest.raises(FaultSchemaError, match=r"events\[1\].*'factor'"):
        FaultPlan.from_dict(
            {
                "name": "bad",
                "events": [
                    {"kind": "host_down", "target": "host0"},
                    {"kind": "link_degrade", "target": "a--b"},
                ],
            }
        )


def test_plan_event_unknown_key_rejected():
    with pytest.raises(FaultSchemaError, match=r"events\[0\].*'when_ps'"):
        FaultPlan.from_dict(
            {
                "name": "bad",
                "events": [
                    {"kind": "host_down", "target": "host0", "when_ps": 5},
                ],
            }
        )


def test_plan_json_round_trip(tmp_path):
    plan = fault_plan_by_name("storm")
    path = tmp_path / "storm.json"
    text = dump_fault_plan(plan, path)
    loaded = load_fault_plan(path)
    assert loaded == plan
    assert dump_fault_plan(loaded) == text


def test_load_fault_plan_reports_file_problems(tmp_path):
    with pytest.raises(FaultSchemaError, match="cannot read"):
        load_fault_plan(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(FaultSchemaError, match="invalid JSON"):
        load_fault_plan(bad)


# ----------------------------- registry --------------------------------
def test_unknown_plan_error_lists_options():
    with pytest.raises(UnknownFaultPlanError, match="storm"):
        fault_plan_by_name("no-such-plan")


def test_builtin_plans_registered():
    names = fault_plan_names()
    for expected in (
        "none", "link-degrade", "link-flap", "host-outage",
        "dev-drop", "msg-corrupt", "storm",
    ):
        assert expected in names


def test_shipped_json_plans_registered():
    # examples/faults/*.json join the registry on package import.
    assert "brownout" in fault_plan_names()
    plan = fault_plan_by_name("rolling-maintenance")
    assert plan.events and plan.events[0].kind == "host_down"


def test_parse_fault_ref_and_parametric_factories():
    assert parse_fault_ref("storm") == ("storm", ())
    assert parse_fault_ref("link-degrade(8)") == ("link-degrade", (8,))
    with pytest.raises(FaultSchemaError):
        parse_fault_ref("link-degrade(")
    plan = resolve_fault_plan("msg-corrupt(0.5)")
    assert plan.events[0].rate == 0.5


def test_validate_fault_ref_accepts_all_forms():
    validate_fault_ref("storm")
    validate_fault_ref("link-degrade(2)")
    validate_fault_ref(fault_plan_by_name("none"))
    validate_fault_ref({"name": "inline", "events": []})
    with pytest.raises(UnknownFaultPlanError):
        validate_fault_ref("nope")
    with pytest.raises(FaultSchemaError):
        validate_fault_ref({"name": "inline", "events": [{"kind": "x"}]})


def test_resolve_fault_plan_passthrough():
    assert resolve_fault_plan(None) is None
    plan = fault_plan_by_name("none")
    assert resolve_fault_plan(plan) is plan
    inline = resolve_fault_plan({"name": "inline", "events": []})
    assert inline.name == "inline"


def test_register_fault_plan_file_is_lazy_and_skips_broken(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert register_fault_plan_file(broken) is None

    taken = tmp_path / "storm.json"
    taken.write_text(json.dumps({"name": "storm", "events": []}))
    assert register_fault_plan_file(taken) is None  # name already taken

    # Schema problems surface at first *use*, not at registration.
    lazy = tmp_path / "lazy-bad.json"
    lazy.write_text(json.dumps(
        {"name": "lazy-bad", "events": [{"kind": "bogus", "target": "x"}]}
    ))
    assert register_fault_plan_file(lazy) == "lazy-bad"
    try:
        with pytest.raises(FaultSchemaError):
            fault_plan_by_name("lazy-bad")
    finally:
        from repro.faults import FAULT_PLANS

        del FAULT_PLANS["lazy-bad"]


# -------------------------- corruption draws ---------------------------
def test_corrupt_draw_deterministic_and_bounded():
    draws = [corrupt_draw(7, "a--b", i, 0.3) for i in range(200)]
    assert draws == [corrupt_draw(7, "a--b", i, 0.3) for i in range(200)]
    rate = sum(draws) / len(draws)
    assert 0.1 < rate < 0.5
    assert not corrupt_draw(7, "a--b", 0, 0.0)
    assert corrupt_draw(7, "a--b", 0, 1.0)
    # Seed and key both matter.
    assert draws != [corrupt_draw(8, "a--b", i, 0.3) for i in range(200)]
    assert draws != [corrupt_draw(7, "c--d", i, 0.3) for i in range(200)]


# ------------------------------ controller -----------------------------
def build_fanout(profile="fpga"):
    from repro.system import SystemBuilder, topology_by_name

    return SystemBuilder(system_by_name(profile)).build(
        topology_by_name("fanout-2")
    )


def test_controller_matches_and_leaves_unmatched_inert():
    controller = FaultController(fault_plan_by_name("storm"))
    controller.install(build_fanout())
    matched = {e.target for e in controller.matched}
    unmatched = {e.target for e in controller.unmatched}
    assert "dev0--host" in matched and "dev1--host" in matched
    # Supernode-only targets are inert on a fan-out topology.
    assert "host0" in unmatched and "host0--fabric" in unmatched


def test_controller_install_is_single_shot():
    controller = FaultController(fault_plan_by_name("none"))
    controller.install(build_fanout())
    with pytest.raises(RuntimeError, match="already installed"):
        controller.install(build_fanout())


def test_controller_rejects_bad_mode():
    with pytest.raises(ValueError, match="fault mode"):
        FaultController(fault_plan_by_name("none"), mode="lenient")


def test_retry_policy_validation_and_backoff():
    with pytest.raises(ValueError, match="max_retries"):
        RetryPolicy(max_retries=-1)
    with pytest.raises(ValueError, match="backoff_ps"):
        RetryPolicy(backoff_ps=-5)
    policy = RetryPolicy(max_retries=3, backoff_ps=1000)
    assert [policy.delay_ps(a) for a in range(3)] == [1000, 2000, 4000]


def test_degraded_link_latency_is_time_varying():
    system = build_fanout()
    controller = FaultController(
        fault_plan_by_name("link-degrade", 4.0)
    ).install(system)
    bus = system.nodes["dev0"].flexbus
    base = bus.oneway_ps  # sim.now == 0: before the window
    assert bus.oneway_at(10_000_000) == int(round(base * 4.0))
    system.sim.now = 10_000_000  # inside the 2us..32us window
    assert bus.oneway_ps == int(round(base * 4.0))
    assert bus.oneway_at(0) == base
    system.sim.now = 40_000_000  # recovered
    assert bus.oneway_ps == base
    assert controller.link_factor(("dev0", "host"), 10_000_000) == 4.0


def _dev0_degraded_from(at_ps):
    """dev0's DCOH on asic fanout-2, its host link 4x slower from ``at_ps`` on."""
    from repro.system import SystemBuilder, topology_by_name

    system = SystemBuilder(system_by_name("asic")).build(
        topology_by_name("fanout-2")
    )
    plan = FaultPlan(
        name="late-degrade",
        events=(
            FaultEvent("link_degrade", "dev0--host", at_ps=at_ps, factor=4.0),
        ),
    )
    FaultController(plan).install(system)
    return system.nodes["dev0"].dcoh


def _completion_ps(dcoh, issue):
    """Issue one op at t=0 through ``issue(on_done)``; its completion time."""
    done = []
    issue(lambda *_: done.append(dcoh.sim.now))
    dcoh.sim.run()
    (end,) = done
    return end


@pytest.mark.parametrize("at_ps", [1_335, 2_000, 3_335])
def test_miss_crossing_is_priced_when_the_tag_lookup_ends(at_ps):
    # The tag lookup runs from 1,334 to 3,335 ps and the crossing to the
    # host starts at its end, so a window that opens inside the lookup
    # slows both crossings.  Priced when the lookup starts, the way out
    # would pay the healthy link: 553,982 ps, as for a window that opens
    # just after the crossing starts.
    dcoh = _dev0_degraded_from(at_ps)
    assert _completion_ps(dcoh, lambda done: dcoh.read(0x20_0000, done)) == 581_227
    late = _dev0_degraded_from(3_336)
    assert _completion_ps(late, lambda done: late.read(0x20_0000, done)) == 553_982


@pytest.mark.parametrize("op", ["nc_push", "evict"])
def test_push_and_evict_crossings_are_priced_when_the_request_stage_ends(op):
    def completion(at_ps):
        dcoh = _dev0_degraded_from(at_ps)
        dcoh.hmc.fill(0x20_0000)
        return _completion_ps(dcoh, lambda done: getattr(dcoh, op)(0x20_0000, done))

    # The crossing starts when the request stage ends: a window that
    # opens inside the stage slows it like one open from the start.
    request_ps = _dev0_degraded_from(0)._request_ps
    assert request_ps == 1_334
    assert completion(request_ps) == completion(0)
    assert completion(request_ps + 1) < completion(0)


def test_degraded_time_merges_overlapping_windows():
    plan = FaultPlan(
        name="overlap",
        events=(
            FaultEvent("host_down", "host0", at_ps=0, for_ps=100),
            FaultEvent("host_down", "host0", at_ps=50, for_ps=100),
        ),
    )
    from repro.system import SystemBuilder, topology_by_name

    system = SystemBuilder(system_by_name("asic")).build(
        topology_by_name("supernode-2host")
    )
    controller = FaultController(plan).install(system)
    controller.end_ps = 1_000
    assert controller.degraded_time_ps() == 150
    assert controller.last_recovery_ps() == 150
    # Clipping: a run that ends mid-window only counts elapsed time.
    assert controller.degraded_time_ps(end_ps=120) == 120


# --------------------------- driver integration ------------------------
CORE_SERIES = ("lat_median_ns", "bandwidth_gbps", "ops")


def core_series(measurement):
    return {k: measurement.series[k] for k in CORE_SERIES if k in measurement.series}


def test_fault_none_is_bit_identical_to_plain_run_fanout():
    plain = fpga_driver().run("zipf(96,1.2)", topology="fanout-2", streams=2)
    faulted = fpga_driver().run(
        "zipf(96,1.2)", topology="fanout-2", streams=2,
        fault="none", fault_mode="degraded",
    )
    assert core_series(plain) == core_series(faulted)
    assert faulted.series["availability"]["rate"] == 1.0
    assert faulted.series["recovery"]["matched_events"] == 0.0


def test_fault_none_is_bit_identical_to_plain_run_supernode():
    driver = WorkloadDriver(system_by_name("asic"))
    plain = driver.run("producer-consumer(96,24)", topology="supernode(2)")
    faulted = driver.run(
        "producer-consumer(96,24)", topology="supernode(2)",
        fault="none", fault_mode="degraded",
    )
    assert core_series(plain) == core_series(faulted)


def test_strict_mode_fails_loud_on_active_fault():
    with pytest.raises(FaultActiveError):
        fpga_driver().run(
            "zipf(96,1.2)", topology="fanout-2", streams=2,
            fault="dev-drop",  # default fault_mode="strict"
        )


def test_strict_mode_supernode_host_outage_naks():
    from repro.core.supernode import HostDownError

    driver = WorkloadDriver(system_by_name("asic"))
    with pytest.raises(HostDownError):
        driver.run(
            "producer-consumer(96,24)", topology="supernode(2)",
            fault="host-outage",
        )


def test_degraded_mode_completes_with_recovery_metrics():
    measurement = fpga_driver().run(
        "zipf(96,1.2)", topology="fanout-2", streams=2,
        fault="dev-drop", fault_mode="degraded",
    )
    availability = measurement.series["availability"]
    assert availability["attempted"] == 96.0
    assert availability["retries"] > 0
    assert availability["completed"] + availability["dropped"] == 96.0
    assert 0 < availability["rate"] <= 1.0
    recovery = measurement.series["recovery"]
    assert recovery["degraded_us"] > 0
    assert measurement.fault == "dev-drop"
    assert "under fault plan dev-drop" in measurement.render()


def test_degraded_link_raises_p99():
    clean = fpga_driver().run("zipf(96,1.2)", topology="fanout-2", streams=2)
    slow = fpga_driver().run(
        "zipf(96,1.2)", topology="fanout-2", streams=2,
        fault="link-degrade(8)", fault_mode="degraded",
    )
    assert "lat_p99_ns" not in clean.series
    assert (
        slow.series["lat_p99_ns"]["all"] > clean.series["lat_median_ns"]["all"]
    )


def test_same_seed_and_plan_reproduce_bit_identical_runs():
    runs = [
        fpga_driver().run(
            "mixed(96)", topology="fanout-2", streams=2,
            fault="storm", fault_mode="degraded", seed=77,
        ).to_dict()
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


def test_supernode_degraded_run_deterministic():
    driver = WorkloadDriver(system_by_name("asic"))
    runs = [
        driver.run(
            "producer-consumer(96,24)", topology="supernode(2)",
            fault="storm", fault_mode="degraded", seed=5,
        ).to_dict()
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    assert runs[0]["series"]["naks"]["all"] >= 0


def test_supernode_degraded_accesses_count_completions():
    measurement = WorkloadDriver(system_by_name("asic")).run(
        "rw-mix(1000,0.7)", topology="supernode(4)", streams=4,
        fault="msg-corrupt(0.5)", fault_mode="degraded", seed=7,
    )
    accesses = measurement.series["accesses"]
    availability = measurement.series["availability"]
    assert availability["dropped"] > 0
    per_host = sum(v for host, v in accesses.items() if host != "all")
    assert accesses["all"] == per_host == availability["completed"]


def test_record_replay_parity_under_active_fault(tmp_path):
    from repro.workloads import dump_trace, load_trace, resolve_workload

    workload = resolve_workload("mixed(96)")
    trace_path = tmp_path / "mixed.jsonl"
    dump_trace(workload, seed=42, path=trace_path)
    live = fpga_driver().run(
        workload, topology="fanout-2", streams=2, seed=42,
        fault="link-flap", fault_mode="degraded",
    )
    replayed = fpga_driver().run(
        load_trace(trace_path), topology="fanout-2", streams=2, seed=42,
        fault="link-flap", fault_mode="degraded",
    )
    assert live.series == replayed.series
    assert live.ops == replayed.ops


# --------------------------- sweep integration -------------------------
def test_sweep_validates_fault_axis_up_front():
    from repro.experiments.spec import SpecError, SweepSpec

    spec = SweepSpec.from_dict(
        {
            "experiments": [
                {
                    "experiment": "fault-tolerance",
                    "grid": {"fault": ["none", "not-a-plan"]},
                }
            ]
        }
    )
    with pytest.raises(SpecError, match="not-a-plan"):
        spec.validate()


def test_sweep_accepts_inline_fault_plan_and_rejects_malformed():
    from repro.experiments.spec import SpecError, SweepSpec

    good = SweepSpec.from_dict(
        {
            "experiments": [
                {
                    "experiment": "fault-tolerance",
                    "params": {
                        "fault": {"name": "inline", "events": []}
                    },
                }
            ]
        }
    )
    good.validate()
    bad = SweepSpec.from_dict(
        {
            "experiments": [
                {
                    "experiment": "fault-tolerance",
                    "params": {
                        "fault": {"name": "inline", "events": [{"kind": "x"}]}
                    },
                }
            ]
        }
    )
    with pytest.raises(SpecError, match="'target'"):
        bad.validate()


def test_fault_tolerance_preset_expands_with_fault_axis():
    from repro.experiments import preset_sweep

    spec = preset_sweep("fault-tolerance")
    spec.validate()
    specs = spec.expand()
    fault_values = {s.params["fault"] for s in specs}
    assert len(specs) >= 6
    assert len(fault_values) >= 3
    assert "none" in fault_values


def test_fault_tolerance_experiment_reports_availability():
    from repro.harness.experiments import run_experiment

    result = run_experiment(
        "fault-tolerance", fault="host-outage",
        topology="supernode(2)", workload="producer-consumer(96,24)",
    )
    assert result.series["availability"]["attempted"] > 0
    assert result.series["recovery"]["matched_events"] == 1.0


# ------------------------------- CLI -----------------------------------
def test_cli_fault_list_and_show():
    code, out = run_cli("fault", "list")
    assert code == 0
    assert "storm" in out and "host-outage" in out

    code, out = run_cli("fault", "show", "storm")
    assert code == 0
    assert "fault plan storm" in out and "host_down" in out

    code, out = run_cli("fault", "show", "no-such")
    assert code == 2
    assert "unknown fault plan" in out


def test_cli_fault_validate(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"name": "g", "events": []}))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        {"name": "b", "events": [{"kind": "host_down", "target": "h", "rate": 1}]}
    ))
    code, out = run_cli("fault", "validate", str(good))
    assert code == 0 and "ok" in out
    code, out = run_cli("fault", "validate", str(good), str(bad))
    assert code == 2
    assert "FAIL" in out and "'rate'" in out


def test_cli_sweep_fault_tolerance_serial(tmp_path):
    out_dir = tmp_path / "ft"
    code, out = run_cli(
        "sweep", "fault-tolerance", "--backend", "serial",
        "--out", str(out_dir),
    )
    assert code == 0
    assert "10 specs" in out and "0 failed" in out

    # The in-sweep fault-free baseline equals a plain driver run with
    # the same params + derived seed (the CI fault-smoke contract).
    from repro.experiments import ResultStore

    records = [
        r for r in ResultStore(out_dir).load()
        if r.ok and r.params.get("fault") == "none"
    ]
    assert records
    for record in records:
        driver = fpga_driver()
        plain = driver.run(
            record.params["workload"],
            topology=record.params["topology"],
            # The runner passes only spec params to the experiment, so
            # an unswept seed stays at the experiment default.
            seed=record.params.get("seed", 1234),
            streams=record.params.get("streams") or None,
        )
        for key in CORE_SERIES:
            if key in record.series:
                assert record.series[key] == plain.series[key]


# -------------------- degraded-mode NIC and RPC wire -------------------
def test_nic_ingest_honours_rx_policy():
    from repro.nic.base import NicBase
    from repro.sim.engine import Simulator
    from repro.sim.queueing import QueueFullError

    lossy = NicBase(Simulator(), "lossy", rx_depth=1, rx_policy="drop")
    assert lossy.ingest("a") is True
    assert lossy.ingest("b") is False
    assert lossy.rx.dropped == 1

    strict = NicBase(Simulator(), "strict", rx_depth=1)
    strict.ingest("a")
    with pytest.raises(QueueFullError):
        strict.ingest("b")


def test_rpc_pipeline_clean_wire_is_unchanged():
    from repro.rpc.hyperprotobench import make_bench
    from repro.rpc.rpcnic import RpcNicPipeline

    config = system_by_name("fpga")
    bench = make_bench("Bench0", messages=10)
    result = RpcNicPipeline(config).deserialize_bench(bench)
    assert result.verified
    assert result.retransmits == 0 and result.dropped == 0


def test_rpc_pipeline_lossy_wire_retransmits_deterministically():
    from repro.rpc.hyperprotobench import make_bench
    from repro.rpc.rpcnic import RpcNicPipeline

    config = system_by_name("fpga")
    bench = make_bench("Bench0", messages=20)
    clean = RpcNicPipeline(config).deserialize_bench(bench)
    lossy = [
        RpcNicPipeline(config, corrupt_rate=0.2).deserialize_bench(bench)
        for _ in range(2)
    ]
    assert lossy[0].per_message_ps == lossy[1].per_message_ps
    assert lossy[0].retransmits == lossy[1].retransmits > 0
    assert lossy[0].total_ps > clean.total_ps
    ser = RpcNicPipeline(config, corrupt_rate=0.2).serialize_bench(bench)
    assert ser.retransmits > 0

    with pytest.raises(ValueError, match="corrupt_rate"):
        RpcNicPipeline(config, corrupt_rate=1.5)
    with pytest.raises(ValueError, match="max_retransmits"):
        RpcNicPipeline(config, max_retransmits=-1)


# --------------------------- run-all parity ----------------------------
def test_run_all_output_unchanged_by_faults_import(tmp_path):
    """``repro run all`` prints the committed golden text, with and
    without ``repro.faults`` imported first.

    Regenerate ``tests/data/golden_run_all.txt`` (only on a deliberate
    behaviour change) with
    ``PYTHONPATH=src python -m repro run all > tests/data/golden_run_all.txt``.
    """
    golden = (Path(__file__).with_name("data") / "golden_run_all.txt").read_text()
    src = Path(__file__).resolve().parents[1] / "src"
    env_script = (
        "import sys; sys.path.insert(0, {src!r}); "
        "{extra}"
        "from repro.cli import main; sys.exit(main(['run', 'all']))"
    )
    outputs = []
    for extra in ("", "import repro.faults; "):
        proc = subprocess.run(
            [sys.executable, "-c", env_script.format(src=str(src), extra=extra)],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs == [golden, golden]
