"""Tests for the experiment orchestration subsystem.

Covers spec expansion (grid product, repeat seeding, hashing), runner
failure isolation and cache hits, ResultStore round-trips, report/
compare generation, and the sweep/report/compare CLI exit codes.
"""

import json
from pathlib import Path

import pytest

from cli_helpers import run_cli

from repro.experiments import (
    PRESETS,
    ExperimentSpec,
    ResultStore,
    RunReport,
    SpecError,
    StoreCorruptionWarning,
    StoredResult,
    SweepSpec,
    compare_runs,
    preset_sweep,
    run_sweep,
)
from repro.calibration.microbench import CxlTestbench
from repro.config import system_by_name
from repro.experiments.runner import _execute_spec, _pool_context
from repro.harness.experiments import (
    EXPERIMENTS,
    clear_shared_results,
    fig13_load_latency,
    fig15_load_bandwidth,
    headline_metrics,
    run_experiment,
    shared_rpc_comparison,
    simulation_error,
)
from repro.sim.engine import Simulator

TINY_SWEEP = {
    "name": "tiny",
    "repeats": 2,
    "experiments": [
        {"experiment": "table1"},
        {"experiment": "table2"},
    ],
}


def tiny_sweep(**overrides):
    data = dict(TINY_SWEEP)
    data.update(overrides)
    return SweepSpec.from_dict(data)


# ------------------------------ Specs ---------------------------------
def test_grid_expansion_is_full_product():
    sweep = SweepSpec.from_dict({
        "name": "grid",
        "experiments": [
            {"experiment": "fig13", "grid": {"trials": [2, 3, 4]}},
            {"experiment": "fig18a",
             "params": {"profile": "asic"},
             "grid": {"messages": [10, 20]}},
        ],
    })
    specs = sweep.expand()
    assert len(specs) == 5
    trials = sorted(s.params["trials"] for s in specs if s.experiment == "fig13")
    assert trials == [2, 3, 4]
    for spec in specs:
        if spec.experiment == "fig18a":
            assert spec.params["profile"] == "asic"


def test_repeats_get_distinct_deterministic_seeds():
    specs_a = tiny_sweep().expand()
    specs_b = tiny_sweep().expand()
    assert len(specs_a) == 4
    assert [s.seed for s in specs_a] == [s.seed for s in specs_b]
    table1_seeds = {s.seed for s in specs_a if s.experiment == "table1"}
    assert len(table1_seeds) == 2  # one per repeat
    assert len({s.spec_hash for s in specs_a}) == 4


def test_spec_hash_survives_group_reordering():
    reordered = tiny_sweep(experiments=list(reversed(TINY_SWEEP["experiments"])))
    assert (
        {s.spec_hash for s in tiny_sweep().expand()}
        == {s.spec_hash for s in reordered.expand()}
    )


def test_spec_hash_changes_with_params():
    a = ExperimentSpec("fig13", {"trials": 2})
    b = ExperimentSpec("fig13", {"trials": 3})
    assert a.spec_hash != b.spec_hash
    assert a.spec_hash == ExperimentSpec("fig13", {"trials": 2}).spec_hash


def test_validate_rejects_unknown_experiment_and_params():
    with pytest.raises(SpecError, match="fig99"):
        SweepSpec.from_dict(
            {"experiments": [{"experiment": "fig99"}]}
        ).validate()
    with pytest.raises(SpecError, match="bogus"):
        SweepSpec.from_dict(
            {"experiments": [{"experiment": "fig13", "params": {"bogus": 1}}]}
        ).validate()
    with pytest.raises(
        SpecError, match="does not accept parameter\\(s\\) sim_parallel"
    ):
        SweepSpec.from_dict(
            {"experiments": [{"experiment": "supernode-workload",
                              "grid": {"sim_parallel": [1, 4]}}]}
        ).validate()


def test_from_dict_rejects_malformed_shapes():
    with pytest.raises(SpecError, match="id or object"):
        SweepSpec.from_dict({"experiments": [42]})
    with pytest.raises(SpecError, match="grid values must be lists"):
        SweepSpec.from_dict(
            {"experiments": [{"experiment": "fig13", "grid": {"trials": 5}}]}
        )
    with pytest.raises(SpecError, match="grid values must be lists"):
        SweepSpec.from_dict(
            {"experiments": [{"experiment": "fig13",
                              "grid": {"profile": "fpga"}}]}
        )
    with pytest.raises(SpecError, match="'params' must be an object"):
        SweepSpec.from_dict(
            {"experiments": [{"experiment": "fig13", "params": [1]}]}
        )
    with pytest.raises(SpecError, match="integers"):
        SweepSpec.from_dict(
            {"experiments": ["table1"], "repeats": "lots"}
        )


def test_validate_rejects_object_valued_params():
    # simulation_error's precomputed-result params are programmatic-only;
    # a sweep spec cannot express them, so validation refuses up-front.
    sweep = SweepSpec.from_dict({
        "experiments": [
            {"experiment": "mape", "params": {"fig13_result": {"series": {}}}}
        ],
    })
    with pytest.raises(SpecError, match="fig13_result"):
        sweep.validate()
    SweepSpec.from_dict(
        {"experiments": [{"experiment": "mape", "params": {"trials": 2}}]}
    ).validate()


def test_spec_file_round_trip(tmp_path):
    path = tmp_path / "mine.json"
    path.write_text(json.dumps(TINY_SWEEP))
    sweep = SweepSpec.from_file(path)
    assert sweep.name == "tiny"
    assert sweep.to_dict()["repeats"] == 2


def test_presets_validate_and_quick_is_wide_enough():
    for name in PRESETS:
        sweep = preset_sweep(name)
        sweep.validate()
    assert len(preset_sweep("quick").expand()) >= 8


# ------------------------------ Store ---------------------------------
def _record(spec_hash="abc", experiment="table1", status="ok", **kwargs):
    defaults = dict(
        spec_hash=spec_hash, experiment=experiment, params={}, repeat=0,
        seed=1, status=status, series={"s": {"k": 1.0}}, text="t",
    )
    defaults.update(kwargs)
    return StoredResult(**defaults)


def test_store_round_trip(tmp_path):
    store = ResultStore(tmp_path / "run")
    store.append(_record("h1"))
    store.append(_record("h2", experiment="fig13", status="error", error="boom"))
    loaded = ResultStore(tmp_path / "run").load()
    assert [r.spec_hash for r in loaded] == ["h1", "h2"]
    assert list(store.query(experiment="fig13"))[0].error == "boom"
    assert list(store.query(status="ok"))[0].spec_hash == "h1"
    assert store.ok_hashes() == {"h1"}


def test_store_latest_record_wins(tmp_path):
    store = ResultStore(tmp_path / "run")
    store.append(_record("h1", status="error"))
    store.append(_record("h1", status="ok"))
    assert store.latest()["h1"].ok
    assert store.ok_hashes() == {"h1"}


def test_store_counts_and_warns_on_corrupt_lines(tmp_path):
    store = ResultStore(tmp_path / "run")
    store.append(_record("h1"))
    with store.results_path.open("a") as fh:
        fh.write("not json\n")
    with pytest.warns(StoreCorruptionWarning, match="1 corrupt"):
        loaded = store.load()
    assert len(loaded) == 1
    assert loaded.skipped == 1


# ------------------------------ Runner --------------------------------
def _boom():
    """Deliberately failing experiment used by isolation tests."""
    raise RuntimeError("intentional failure")


def test_runner_isolates_failures_serially(tmp_path, monkeypatch):
    monkeypatch.setitem(EXPERIMENTS, "boom", _boom)
    sweep = SweepSpec.from_dict({
        "name": "mixed",
        "experiments": [{"experiment": "boom"}, {"experiment": "table1"}],
    })
    outcome = run_sweep(sweep, tmp_path / "run", jobs=1)
    assert outcome.total == 2
    assert len(outcome.failed) == 1
    assert "intentional failure" in outcome.failed[0].error
    ok = [r for r in outcome.executed if r.ok]
    assert ok[0].experiment == "table1"
    # The failed spec is not cached: a re-run retries only it.
    retry = run_sweep(sweep, tmp_path / "run", jobs=1)
    assert retry.cached == 1
    assert [r.experiment for r in retry.executed] == ["boom"]


def test_runner_cache_hits_and_force(tmp_path):
    sweep = tiny_sweep()
    first = run_sweep(sweep, tmp_path / "run", jobs=1)
    assert first.cached == 0 and first.ok and first.total == 4
    second = run_sweep(sweep, tmp_path / "run", jobs=1)
    assert second.cached == 4 and not second.executed
    forced = run_sweep(sweep, tmp_path / "run", jobs=1, force=True)
    assert forced.cached == 0 and len(forced.executed) == 4


def test_runner_extends_cache_for_new_specs(tmp_path):
    run_sweep(tiny_sweep(), tmp_path / "run", jobs=1)
    wider = tiny_sweep(
        experiments=TINY_SWEEP["experiments"] + [{"experiment": "fig4"}]
    )
    outcome = run_sweep(wider, tmp_path / "run", jobs=1)
    assert outcome.cached == 4
    assert sorted(r.experiment for r in outcome.executed) == ["fig4", "fig4"]


def test_runner_collapses_duplicate_specs(tmp_path):
    sweep = SweepSpec.from_dict({
        "name": "dup",
        "experiments": [
            {"experiment": "table1", "grid": {}},
            {"experiment": "table1"},  # same spec listed twice
        ],
    })
    outcome = run_sweep(sweep, tmp_path / "run", jobs=1)
    assert len(outcome.executed) == 1
    assert outcome.total == 1
    # Accounting stays consistent on a fully-cached re-run.
    rerun = run_sweep(sweep, tmp_path / "run", jobs=1)
    assert rerun.cached == 1 and rerun.total == 1


def test_runner_refuses_to_mix_sweeps_in_one_dir(tmp_path):
    run_sweep(tiny_sweep(), tmp_path / "run", jobs=1)
    other = tiny_sweep(name="other")
    with pytest.raises(SpecError, match="already holds sweep 'tiny'"):
        run_sweep(other, tmp_path / "run", jobs=1)


def test_runner_serial_path_restores_global_rng(tmp_path):
    import random

    random.seed(42)
    expected = random.getstate()
    run_sweep(tiny_sweep(), tmp_path / "run", jobs=1)
    assert random.getstate() == expected


def test_runner_parallel_execution_and_metadata(tmp_path):
    outcome = run_sweep(tiny_sweep(), tmp_path / "run", jobs=2)
    assert outcome.ok and outcome.total == 4
    for record in outcome.executed:
        assert record.wall_time_s >= 0
        assert record.timestamp > 0
        assert record.sweep == "tiny"


def test_runner_persists_each_result_as_it_lands(tmp_path):
    # Progress callbacks observe the store mid-sweep: every completed
    # spec must already be on disk, so an interrupted sweep keeps them.
    store = ResultStore(tmp_path / "run")
    persisted_counts = []

    def watch(_line):
        persisted_counts.append(len(store.load()))

    run_sweep(tiny_sweep(), tmp_path / "run", jobs=2, progress=watch)
    assert persisted_counts == [1, 2, 3, 4]


@pytest.mark.skipif(
    _pool_context().get_start_method() != "fork",
    reason="parallel failure isolation test needs fork start method",
)
def test_runner_isolates_failures_in_parallel(tmp_path, monkeypatch):
    monkeypatch.setitem(EXPERIMENTS, "boom", _boom)
    sweep = SweepSpec.from_dict({
        "name": "mixed",
        "experiments": [
            {"experiment": "boom"},
            {"experiment": "table1"},
            {"experiment": "table2"},
        ],
    })
    outcome = run_sweep(sweep, tmp_path / "run", jobs=2)
    assert outcome.total == 3
    assert len(outcome.failed) == 1
    assert len([r for r in outcome.executed if r.ok]) == 2


# ------------------------------ Report --------------------------------
@pytest.fixture(scope="module")
def stored_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("runs") / "base"
    sweep = SweepSpec.from_dict({
        "name": "base",
        "experiments": [
            {"experiment": "fig13", "params": {"trials": 2}},
            {"experiment": "table1"},
        ],
    })
    assert run_sweep(sweep, out, jobs=1).ok
    return out


def test_report_mape_and_markdown(stored_run):
    report = RunReport(stored_run)
    assert report.experiments == ["fig13", "table1"]
    mape = report.mape_by_experiment["fig13"]
    assert mape is not None and 0 <= mape < 0.10
    assert report.mape_by_experiment["table1"] is None  # no reference series
    markdown = report.markdown()
    assert "| fig13" in markdown and "| TOTAL" in markdown
    assert "%" in markdown


def test_compare_runs_renders_delta_table(stored_run, tmp_path):
    other = tmp_path / "other"
    sweep = SweepSpec.from_dict({
        "name": "other",
        "experiments": [{"experiment": "fig13", "params": {"trials": 3}}],
    })
    assert run_sweep(sweep, other, jobs=1).ok
    table = compare_runs(stored_run, other)
    assert "| fig13" in table
    assert "wall_time_s" in table
    assert "x" in table  # wall-time speedup column
    assert "table1" not in table  # only common experiments compared


def test_compare_skips_wall_time_for_failed_runs(tmp_path):
    store_a = ResultStore(tmp_path / "a")
    store_a.append(_record("h1", experiment="fig13", wall_time_s=5.0))
    store_b = ResultStore(tmp_path / "b")
    store_b.append(_record(
        "h1", experiment="fig13", status="error", error="boom",
        series={}, wall_time_s=0.01,
    ))
    table = compare_runs(store_a, store_b)
    # A crashed run's near-zero wall time must not render as a speedup.
    assert "wall_time_s" not in table


def test_paper_refs_only_embedded_for_matching_profile():
    # Sweeping profile away from the hardware the paper measured must
    # drop the reference series, not score against the wrong hardware.
    from repro.harness.experiments import fig12_numa_latency, fig17_rao_speedup

    assert "paper_median_ns" in fig12_numa_latency(trials=2).series
    assert "paper_median_ns" not in fig12_numa_latency(trials=2, profile="asic").series
    assert "paper_speedup" in fig17_rao_speedup(ops=128).series
    assert "paper_speedup" not in fig17_rao_speedup(ops=128, profile="fpga").series


# --------------------------- Shared passes ----------------------------
def test_fig18_shares_one_rpc_comparison():
    shared_rpc_comparison.cache_clear()
    first = shared_rpc_comparison("asic", 10)
    again = shared_rpc_comparison("asic", 10)
    assert first is again
    assert shared_rpc_comparison("asic", 12) is not first
    clear_shared_results()
    assert shared_rpc_comparison("asic", 10) is not first


@pytest.fixture
def drained(monkeypatch):
    """``drained(call)``: the events ``call()`` drains through ``Simulator.run``."""
    count, run = [0], Simulator.run

    def counting_run(self, *args, **kwargs):
        executed = run(self, *args, **kwargs)
        count[0] += executed
        return executed

    monkeypatch.setattr(Simulator, "run", counting_run)

    def measure(call):
        count[0] = 0
        call()
        return count[0]

    return measure


# Events each experiment drains on its own (tests/data/golden_paper.json
# before sharing): mape is its own trials=4 fig13 plus a full fig15.
FIG13_EVENTS, FIG15_EVENTS, MAPE_FIG13_EVENTS = 8_266, 65_538, 4_154


def test_fig13_and_fig15_always_simulate_and_headline_and_mape_read_them(drained):
    clear_shared_results()
    for _ in range(2):
        assert drained(lambda: run_experiment("fig15")) == FIG15_EVENTS
    assert drained(lambda: run_experiment("mape")) == MAPE_FIG13_EVENTS
    clear_shared_results()
    assert drained(lambda: run_experiment("mape")) == MAPE_FIG13_EVENTS + FIG15_EVENTS
    # mape stored the fig15 it had to run; headline runs only fig13.
    assert drained(lambda: run_experiment("headline")) == FIG13_EVENTS
    assert drained(lambda: run_experiment("headline")) == 0
    # A run with parameters is not a default-argument result: not stored.
    clear_shared_results()
    run_experiment("fig13", trials=2)
    assert drained(lambda: run_experiment("headline")) == FIG13_EVENTS + FIG15_EVENTS


def test_headline_and_mape_print_the_same_with_and_without_shared_results():
    golden = (Path(__file__).with_name("data") / "golden_run_all.txt").read_text()
    alone = []
    for name in ("headline", "mape"):
        clear_shared_results()
        alone.append(run_experiment(name).text)
    clear_shared_results()
    run_experiment("fig13")
    run_experiment("fig15")
    shared = [run_experiment(name).text for name in ("headline", "mape")]
    assert shared == alone
    assert all(text + "\n\n" in golden for text in shared)


@pytest.mark.parametrize("profile", ["fpga", "asic"])
def test_headline_ratios_are_the_fresh_64b_measurements(profile):
    config = system_by_name(profile)
    mem_lat = CxlTestbench(config).latency_mem_hit(trials=8).median_ns
    dma_lat = CxlTestbench(config).dma_latency(64, repeats=20).median_ns
    mem_bw = CxlTestbench(config).bandwidth_mem_hit().bandwidth_gbps
    dma_bw = CxlTestbench(config).dma_bandwidth(64).bandwidth_gbps
    clear_shared_results()
    assert headline_metrics(profile).series["measured"] == {
        "latency_reduction": 1.0 - mem_lat / dma_lat,
        "bandwidth_ratio": mem_bw / dma_bw,
    }


def test_a_sweep_spec_never_reads_results_of_an_earlier_spec(drained):
    def spec(experiment):
        return {
            "spec_hash": experiment, "experiment": experiment,
            "params": {}, "repeat": 0, "seed": 1,
        }

    assert _execute_spec(spec("fig15"))["status"] == "ok"
    records = []
    assert drained(lambda: records.append(_execute_spec(spec("mape")))) == (
        MAPE_FIG13_EVENTS + FIG15_EVENTS
    )
    assert records[0]["status"] == "ok"


def test_simulation_error_accepts_precomputed_results():
    fig13 = fig13_load_latency(trials=2)
    fig15 = fig15_load_bandwidth()
    reused = simulation_error(fig13_result=fig13, fig15_result=fig15)
    assert 0 < reused.series["overall"]["mape"] < 0.05
    # The precomputed series are what the detail rows were built from.
    detail = reused.series["per_point"]
    assert any(key.endswith("_lat") for key in detail)
    assert any(key.endswith("_bw") for key in detail)


# ------------------------------ CLI -----------------------------------
def test_cli_sweep_report_compare_round_trip(tmp_path):
    spec = tmp_path / "tiny.json"
    spec.write_text(json.dumps(TINY_SWEEP))
    run_a = tmp_path / "a"
    run_b = tmp_path / "b"

    code, out = run_cli("sweep", str(spec), "--out", str(run_a), "--jobs", "1")
    assert code == 0
    assert "4 specs" in out and "0 failed" in out

    code, out = run_cli("sweep", str(spec), "--out", str(run_a), "--jobs", "1")
    assert code == 0
    assert "4 cached" in out

    code, _ = run_cli("sweep", str(spec), "--out", str(run_b), "--jobs", "1")
    assert code == 0

    code, out = run_cli("report", str(run_a))
    assert code == 0
    assert "Run report" in out and "| table1" in out

    code, out = run_cli("compare", str(run_a), str(run_b))
    assert code == 0
    assert "| table1" in out and "wall_time_s" in out


def test_cli_sweep_rejects_bad_specs(tmp_path):
    code, out = run_cli("sweep", "--preset", "nope")
    assert code == 2 and "unknown sweep preset" in out

    code, out = run_cli("sweep")
    assert code == 2 and "exactly one" in out

    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps(
        {"experiments": [{"experiment": "fig13", "params": {"bogus": 1}}]}
    ))
    code, out = run_cli("sweep", str(spec))
    assert code == 2 and "bogus" in out

    code, out = run_cli("sweep", str(tmp_path / "missing.json"))
    assert code == 2 and "no such sweep spec" in out


def test_cli_report_and_compare_need_results(tmp_path):
    code, out = run_cli("report", str(tmp_path / "empty"))
    assert code == 2 and "no results" in out
    code, out = run_cli("compare", str(tmp_path / "x"), str(tmp_path / "y"))
    assert code == 2
