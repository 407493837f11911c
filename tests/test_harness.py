"""Tests for the experiment harness: renderers and result shapes."""

import pytest

from repro.calibration import reference
from repro.harness.comparison import SIMULATOR_COMPARISON, render_table2
from repro.harness.experiments import (
    EXPERIMENTS,
    fig17_rao_speedup,
    fig18a_deserialization,
    fig18b_serialization,
    run_experiment,
    simulation_error,
    table1_configurations,
    table2_comparison,
)
from repro.harness.tables import render_series, render_table


# ------------------------------ Renderers -----------------------------
def test_render_table_alignment():
    out = render_table(["a", "bb"], [[1, 22], [333, 4]], title="T")
    lines = out.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "bb" in lines[1]
    assert len(lines) == 5


def test_render_table_width_mismatch():
    with pytest.raises(ValueError):
        render_table(["a"], [[1, 2]])


def test_render_series_merges_axes():
    out = render_series("x", {"s1": {1: 1.0}, "s2": {2: 2.0}})
    assert "-" in out  # missing points rendered as dashes


# ------------------------------ Table II ------------------------------
def test_only_simcxl_supports_everything():
    for name, caps in SIMULATOR_COMPARISON.items():
        full = caps["Cohet Support"] == "Yes" and caps["CXL.cache Support"] == "Yes"
        assert full == (name == "SimCXL")


def test_render_table2_includes_all_rows():
    out = render_table2()
    for name in SIMULATOR_COMPARISON:
        assert name in out


# --------------------------- Experiment registry ----------------------
def test_registry_covers_every_figure_and_table():
    expected = {
        "table1", "table2", "fig4", "fig12", "fig13", "fig14", "fig15",
        "fig16", "fig17", "fig18a", "fig18b", "headline", "mape",
        # multi-device topology scenarios (repro.harness.topology_experiments)
        "fanout2", "fanout4", "topo-scale",
        # workload-driven scenarios (repro.harness.workload_experiments)
        "workload-mix", "supernode-workload",
        # failure scenarios (repro.harness.fault_experiments)
        "fault-tolerance",
    }
    assert set(EXPERIMENTS) == expected


def test_unknown_experiment_rejected():
    with pytest.raises(KeyError):
        run_experiment("fig99")


def test_table1_has_both_columns():
    result = table1_configurations()
    assert "Xeon" in result.text
    assert "X86O3CPU" in result.text
    assert result.series["testbed"].keys() == result.series["simcxl"].keys()


# ------------------------- Result-shape checks ------------------------
def test_fig17_shape_matches_paper():
    result = fig17_rao_speedup(ops=1024)
    speedup = result.series["speedup"]
    # Paper extremes: RAND 5.5x (min), CENTRAL 40.2x (max), STRIDE1 22.4x.
    assert speedup["CENTRAL"] == pytest.approx(40.2, rel=0.08)
    assert speedup["STRIDE1"] == pytest.approx(22.4, rel=0.08)
    assert speedup["RAND"] == pytest.approx(5.5, rel=0.08)
    for pattern in ("SG", "SCATTER", "GATHER"):
        assert speedup["RAND"] < speedup[pattern] < speedup["STRIDE1"]
    assert min(speedup.values()) == speedup["RAND"]
    assert max(speedup.values()) == speedup["CENTRAL"]


def test_fig18a_shape_matches_paper():
    result = fig18a_deserialization(messages=60)
    speedup = result.series["speedup"]
    assert all(s > 1.25 for s in speedup.values())
    assert max(speedup, key=speedup.get) == "Bench1"   # paper: 2.05x max
    assert min(speedup, key=speedup.get) == "Bench5"   # paper: 1.33x min
    assert speedup["Bench1"] == pytest.approx(2.05, rel=0.06)
    assert speedup["Bench5"] == pytest.approx(1.33, rel=0.06)


def test_fig18b_shape_matches_paper():
    result = fig18b_serialization(messages=60)
    mem = result.series["speedup_mem"]
    cache_pf = result.series["speedup_cache_pf"]
    gains = result.series["prefetch_gain"]
    # CXL.mem: 4.06x max on Bench1, ~2.0x min on Bench5.
    assert max(mem, key=mem.get) == "Bench1"
    assert min(mem, key=mem.get) == "Bench5"
    assert mem["Bench1"] == pytest.approx(4.06, rel=0.1)
    assert mem["Bench5"] == pytest.approx(2.0, rel=0.1)
    # Every CXL design beats RpcNIC.
    assert all(s > 1.0 for s in mem.values())
    assert all(s > 1.0 for s in cache_pf.values())
    # Prefetch gains positive everywhere; the minimum lands on the
    # deeply nested Bench2 or bulk-string Bench5 (paper: Bench2, 3.6%).
    assert all(g > 0 for g in gains.values())
    assert min(gains, key=gains.get) in ("Bench2", "Bench5")
    avg_gain = sum(gains.values()) / len(gains)
    assert 0.04 < avg_gain < 0.2  # paper: 12% average


def test_mape_within_paper_bound():
    result = simulation_error()
    assert result.series["overall"]["mape"] <= reference.TARGET_MAPE


def test_experiment_text_is_printable():
    result = table2_comparison()
    assert "SimCXL" in result.text


def test_fig4_programming_models():
    """Fig. 4: Cohet's listing is the shortest and actually executes."""
    result = run_experiment("fig4")
    lines = result.series["lines"]
    assert lines["explicit-copy"] == 16
    assert lines["unified-memory"] == 10
    assert lines["cohet"] == 9
    assert result.series["copies"]["cohet"] == 0
    assert result.series["special_allocs"]["cohet"] == 0
    assert "OK" in result.text  # the Cohet listing ran on SimCXL
