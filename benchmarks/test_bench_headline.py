"""§VI headline numbers and the overall calibration error."""

from conftest import run_and_print

from repro.harness.experiments import (
    clear_shared_results,
    headline_metrics,
    simulation_error,
)


def test_bench_headline(benchmark):
    clear_shared_results()  # time the full work, not fig13/fig15 read back
    result = run_and_print(benchmark, headline_metrics)
    measured = result.series["measured"]
    # -68% latency, 14.4x bandwidth vs. DMA at 64 B.
    assert abs(measured["latency_reduction"] - 0.68) < 0.02
    assert abs(measured["bandwidth_ratio"] - 14.4) / 14.4 < 0.05


def test_bench_calibration_mape(benchmark):
    clear_shared_results()  # time the full work, not fig15 read back
    result = run_and_print(benchmark, simulation_error)
    # The paper reports ~3% MAPE after calibration.
    assert result.series["overall"]["mape"] <= 0.03
