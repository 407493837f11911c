"""Experiment entry points, one per paper table/figure.

Every function returns an :class:`ExperimentResult` whose ``series``
holds the regenerated numbers and whose ``text`` is the printable
table; benchmarks call these and print ``text`` so each run shows the
same rows/series the paper reports.

Every entry point accepts its knobs as plain keyword arguments with
JSON-representable values (ints, strings, lists), so the
:data:`EXPERIMENTS` registry doubles as the dispatch table for the
sweep orchestrator in :mod:`repro.experiments` — a spec's ``params``
dict is passed straight through :func:`run_experiment`.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.calibration import reference
from repro.calibration.metrics import mape
from repro.calibration.microbench import CxlTestbench
from repro.config import (
    simcxl_table1_config,
    system_by_name,
    testbed_table1_config,
)
from repro.harness.comparison import render_table2
from repro.harness.tables import render_series, render_table
from repro.rao.harness import run_rao_comparison
from repro.rpc.harness import run_rpc_comparison

DMA_SWEEP_SIZES = (64, 256, 1024, 4096, 16384, 65536, 262144)


@lru_cache(maxsize=8)
def shared_rpc_comparison(profile: str = "asic", messages: int = 200):
    """One RPC comparison pass shared by fig18a and fig18b.

    Both figures report different columns of the same
    :func:`run_rpc_comparison` sweep, so running it twice doubles
    fig18 runtime for identical numbers.  Memoised per
    ``(profile, messages)``.

    Consequence: in a serial process, whichever fig18 half runs second
    costs microseconds — recorded wall times there reflect marginal
    cost by design.  :func:`clear_shared_results` drops this memo with
    the shared fig13/fig15 results; call it first when timing a full
    pass in isolation.
    """
    return run_rpc_comparison(system_by_name(profile), messages=messages)


#: Experiments whose latest default-argument result later experiments of
#: the same pass read instead of simulating it again (headline and mape).
SHARED_EXPERIMENT_IDS: Tuple[str, ...] = ("fig13", "fig15")

_shared_results: Dict[str, ExperimentResult] = {}


def clear_shared_results() -> None:
    """Forget every result shared between the experiments of a pass.

    That is the stored fig13/fig15 results and the memoised RPC
    comparison, so the next reader simulates them afresh.
    """
    _shared_results.clear()
    shared_rpc_comparison.cache_clear()


def _shared_result(name: str) -> ExperimentResult:
    """The latest default-argument result of ``name``, run if none is stored."""
    result = _shared_results.get(name)
    return result if result is not None else run_experiment(name)


@dataclass
class ExperimentResult:
    """Output of one regenerated table/figure."""

    name: str
    description: str
    series: Dict[str, Dict]
    text: str

    def __str__(self) -> str:
        return self.text


# ---------------------------------------------------------------------
# Fig. 12
# ---------------------------------------------------------------------
def fig12_numa_latency(trials: int = 31, profile: str = "fpga") -> ExperimentResult:
    """CXL.cache load latency distribution across NUMA nodes 0-7."""
    config = system_by_name(profile)
    medians: Dict[int, float] = {}
    p25: Dict[int, float] = {}
    p75: Dict[int, float] = {}
    for node in range(8):
        bench = CxlTestbench(config, seed=100 + node)
        report = bench.latency_mem_hit(trials=trials, node=node)
        medians[node] = report.median_ns
        p25[node] = report.p25_ns
        p75[node] = report.p75_ns
    series = {
        "median_ns": medians,
        "p25_ns": p25,
        "p75_ns": p75,
    }
    if profile == "fpga":  # the paper's NUMA sweep ran on the FPGA testbed
        series["paper_median_ns"] = dict(reference.NUMA_MEDIAN_NS)
    text = render_series(
        "node",
        {k: v for k, v in series.items()},
        title="Fig. 12: CXL.cache mem-hit load latency per NUMA node (ns)",
        fmt="{:.1f}",
    )
    return ExperimentResult("fig12", fig12_numa_latency.__doc__, series, text)


# ---------------------------------------------------------------------
# Fig. 13
# ---------------------------------------------------------------------
def fig13_load_latency(trials: int = 8) -> ExperimentResult:
    """Median 64B load latency per memory tier vs. DMA read at 64B."""
    series: Dict[str, Dict[str, float]] = {}
    for profile in ("fpga", "asic"):
        config = system_by_name(profile)
        measured = {
            "hmc_hit": CxlTestbench(config).latency_hmc_hit(trials=trials).median_ns,
            "llc_hit": CxlTestbench(config).latency_llc_hit(trials=trials).median_ns,
            "mem_hit": CxlTestbench(config).latency_mem_hit(trials=trials).median_ns,
            "dma_64b": CxlTestbench(config).dma_latency(64, repeats=20).median_ns,
        }
        series[config.device.name] = measured
    series["paper:CXL-FPGA@400MHz"] = dict(
        reference.LOAD_LATENCY_NS["CXL-FPGA@400MHz"],
        dma_64b=reference.DMA_LATENCY_64B_NS["PCIe-FPGA@400MHz"],
    )
    series["paper:CXL-ASIC@1.5GHz"] = dict(
        reference.LOAD_LATENCY_NS["CXL-ASIC@1.5GHz"],
        dma_64b=reference.DMA_LATENCY_64B_NS["PCIe-ASIC@1.5GHz"],
    )
    text = render_series(
        "tier",
        series,
        title="Fig. 13: median 64B load latency (ns)",
        fmt="{:.1f}",
    )
    return ExperimentResult("fig13", fig13_load_latency.__doc__, series, text)


# ---------------------------------------------------------------------
# Fig. 14
# ---------------------------------------------------------------------
def fig14_dma_latency(sizes: Tuple[int, ...] = DMA_SWEEP_SIZES) -> ExperimentResult:
    """Median H2D DMA read latency vs. message granularity."""
    series: Dict[str, Dict[int, float]] = {}
    for profile in ("fpga", "asic"):
        config = system_by_name(profile)
        bench = CxlTestbench(config)
        series[config.dma.name] = {
            size: bench.dma.measure_latency(size, repeats=9).median_us
            for size in sizes
        }
    series["paper:PCIe-FPGA@400MHz"] = {
        size: ns / 1_000
        for size, ns in reference.DMA_LATENCY_NS.items()
        if size in sizes
    }
    text = render_series(
        "size_bytes",
        series,
        title="Fig. 14: median H2D DMA read latency (us)",
        fmt="{:.2f}",
    )
    return ExperimentResult("fig14", fig14_dma_latency.__doc__, series, text)


# ---------------------------------------------------------------------
# Fig. 15
# ---------------------------------------------------------------------
def fig15_load_bandwidth() -> ExperimentResult:
    """Average 64B load bandwidth per tier vs. DMA at 64B."""
    series: Dict[str, Dict[str, float]] = {}
    for profile in ("fpga", "asic"):
        config = system_by_name(profile)
        series[config.device.name] = {
            "hmc_hit": CxlTestbench(config).bandwidth_hmc_hit().bandwidth_gbps,
            "llc_hit": CxlTestbench(config).bandwidth_llc_hit().bandwidth_gbps,
            "mem_hit": CxlTestbench(config).bandwidth_mem_hit().bandwidth_gbps,
            "dma_64b": CxlTestbench(config).dma_bandwidth(64).bandwidth_gbps,
        }
    series["paper:CXL-FPGA@400MHz"] = dict(
        reference.LOAD_BANDWIDTH_GBPS["CXL-FPGA@400MHz"],
        dma_64b=reference.DMA_BANDWIDTH_64B_GBPS["PCIe-FPGA@400MHz"],
    )
    series["paper:CXL-ASIC@1.5GHz"] = dict(
        reference.LOAD_BANDWIDTH_GBPS["CXL-ASIC@1.5GHz"],
        dma_64b=reference.DMA_BANDWIDTH_64B_GBPS["PCIe-ASIC@1.5GHz"],
    )
    text = render_series(
        "tier",
        series,
        title="Fig. 15: average 64B load bandwidth (GB/s)",
    )
    return ExperimentResult("fig15", fig15_load_bandwidth.__doc__, series, text)


# ---------------------------------------------------------------------
# Fig. 16
# ---------------------------------------------------------------------
def fig16_dma_bandwidth(sizes: Tuple[int, ...] = DMA_SWEEP_SIZES) -> ExperimentResult:
    """Average H2D DMA read bandwidth vs. message granularity."""
    series: Dict[str, Dict[int, float]] = {}
    for profile in ("fpga", "asic"):
        config = system_by_name(profile)
        bench = CxlTestbench(config)
        series[config.dma.name] = {
            size: bench.dma.measure_bandwidth(size, descriptors=512).bandwidth_gbps
            for size in sizes
        }
    series["paper:PCIe-FPGA@400MHz"] = {
        size: gbps
        for size, gbps in reference.DMA_BANDWIDTH_GBPS.items()
        if size in sizes
    }
    text = render_series(
        "size_bytes",
        series,
        title="Fig. 16: average H2D DMA read bandwidth (GB/s)",
    )
    return ExperimentResult("fig16", fig16_dma_bandwidth.__doc__, series, text)


# ---------------------------------------------------------------------
# Fig. 17
# ---------------------------------------------------------------------
def fig17_rao_speedup(ops: int = 2048, profile: str = "asic") -> ExperimentResult:
    """CXL-RAO vs. PCIe-RAO throughput speedup on CircusTent."""
    comparisons = run_rao_comparison(system_by_name(profile), ops=ops)
    series = {
        "speedup": {name: c.speedup for name, c in comparisons.items()},
        "cxl_hit_rate": {name: c.cxl_hit_rate for name, c in comparisons.items()},
        "pcie_mops": {name: c.pcie_mops for name, c in comparisons.items()},
        "cxl_mops": {name: c.cxl_mops for name, c in comparisons.items()},
    }
    if profile == "asic":  # paper reports RAO speedups on the ASIC projection
        series["paper_speedup"] = dict(reference.RAO_SPEEDUP)
    text = render_series(
        "pattern",
        series,
        title="Fig. 17: CXL-based RAO vs. PCIe-based RAO throughput speedup",
    )
    return ExperimentResult("fig17", fig17_rao_speedup.__doc__, series, text)


# ---------------------------------------------------------------------
# Fig. 18
# ---------------------------------------------------------------------
def fig18a_deserialization(messages: int = 200, profile: str = "asic") -> ExperimentResult:
    """RPC deserialization time: RpcNIC vs. CXL-NIC (HyperProtoBench)."""
    comparisons = shared_rpc_comparison(profile, messages)
    series = {
        "rpcnic_us": {n: c.deser_rpcnic_us for n, c in comparisons.items()},
        "cxl_nic_us": {n: c.deser_cxl_us for n, c in comparisons.items()},
        "speedup": {n: c.deser_speedup for n, c in comparisons.items()},
    }
    if profile == "asic":  # paper's fig18 numbers are from the ASIC config
        series["paper_speedup"] = dict(reference.RPC_DESER_SPEEDUP)
    text = render_series(
        "bench",
        series,
        title="Fig. 18a: deserialization time and speedup",
    )
    return ExperimentResult("fig18a", fig18a_deserialization.__doc__, series, text)


def fig18b_serialization(messages: int = 200, profile: str = "asic") -> ExperimentResult:
    """RPC serialization time: RpcNIC vs. the three CXL-NIC paths."""
    comparisons = shared_rpc_comparison(profile, messages)
    series = {
        "rpcnic_us": {n: c.ser_rpcnic_us for n, c in comparisons.items()},
        "cxl_mem_us": {n: c.ser_cxl_mem_us for n, c in comparisons.items()},
        "cxl_cache_us": {n: c.ser_cxl_cache_us for n, c in comparisons.items()},
        "cxl_cache_pf_us": {n: c.ser_cxl_cache_pf_us for n, c in comparisons.items()},
        "speedup_mem": {n: c.ser_speedup_mem for n, c in comparisons.items()},
        "speedup_cache_pf": {n: c.ser_speedup_cache_pf for n, c in comparisons.items()},
        "prefetch_gain": {n: c.prefetch_gain for n, c in comparisons.items()},
    }
    if profile == "asic":  # paper's fig18 numbers are from the ASIC config
        series["paper_speedup_mem"] = dict(reference.RPC_SER_SPEEDUP_MEM)
    text = render_series(
        "bench",
        series,
        title="Fig. 18b: serialization time and speedups",
    )
    return ExperimentResult("fig18b", fig18b_serialization.__doc__, series, text)


# ---------------------------------------------------------------------
# Tables and headline numbers
# ---------------------------------------------------------------------
def table1_configurations() -> ExperimentResult:
    """Table I: hardware testbed vs. SimCXL configuration."""
    testbed = testbed_table1_config().rows()
    simcxl = simcxl_table1_config()
    rows = [[k, testbed[k], simcxl[k]] for k in testbed]
    text = render_table(
        ["Config. Parameter", "CXL Testbed", "SimCXL"],
        rows,
        title="Table I: configurations for hardware testbed and SimCXL",
    )
    series = {"testbed": testbed, "simcxl": simcxl}
    return ExperimentResult("table1", table1_configurations.__doc__, series, text)


def table2_comparison() -> ExperimentResult:
    """Table II: SimCXL vs. prior CXL simulators/emulators."""
    from repro.harness.comparison import SIMULATOR_COMPARISON

    text = render_table2()
    return ExperimentResult(
        "table2", table2_comparison.__doc__, dict(SIMULATOR_COMPARISON), text
    )


def headline_metrics(profile: str = "fpga") -> ExperimentResult:
    """§VI headline: CXL.cache vs. DMA at 64B (latency -68%, bandwidth 14.4x).

    Both ratios are Fig. 13's and Fig. 15's 64B points for ``profile``'s
    device, read from the latest default-argument fig13/fig15 results of
    this process (each is run first if none is stored), so a pass that
    already regenerated those figures simulates nothing here.
    """
    device = system_by_name(profile).device.name
    latency = _shared_result("fig13").series[device]
    bandwidth = _shared_result("fig15").series[device]
    latency_reduction = 1.0 - latency["mem_hit"] / latency["dma_64b"]
    bandwidth_ratio = bandwidth["mem_hit"] / bandwidth["dma_64b"]
    series = {
        "measured": {
            "latency_reduction": latency_reduction,
            "bandwidth_ratio": bandwidth_ratio,
        },
    }
    if profile == "fpga":  # §VI's headline figures come from the FPGA testbed
        series["paper"] = {
            "latency_reduction": reference.HEADLINE_LATENCY_REDUCTION,
            "bandwidth_ratio": reference.HEADLINE_BANDWIDTH_RATIO,
        }
    text = render_series(
        "metric",
        series,
        title="Headline: CXL.cache vs. DMA at cacheline granularity",
    )
    return ExperimentResult("headline", headline_metrics.__doc__, series, text)


def simulation_error(
    trials: int = 4,
    fig13_result: Optional[ExperimentResult] = None,
    fig15_result: Optional[ExperimentResult] = None,
) -> ExperimentResult:
    """Overall calibration MAPE across every latency/bandwidth point.

    Accepts precomputed fig13/fig15 :class:`ExperimentResult`s so a
    caller that already regenerated those figures can reuse them.
    Without them, the latency points come from a fig13 run at
    ``trials`` here, and the bandwidth points from the latest
    default-argument fig15 result of this process (run first if none is
    stored), which is what a ``repro run all`` pass regenerated.
    """
    pairs: List[Tuple[float, float]] = []
    detail: Dict[str, float] = {}

    fig13 = (fig13_result or fig13_load_latency(trials=trials)).series
    for profile in ("CXL-FPGA@400MHz", "CXL-ASIC@1.5GHz"):
        for tier, ref_value in reference.LOAD_LATENCY_NS[profile].items():
            measured = fig13[profile][tier]
            pairs.append((measured, ref_value))
            detail[f"{profile}/{tier}_lat"] = abs(measured - ref_value) / ref_value
    for dma_name, profile in (
        ("PCIe-FPGA@400MHz", "CXL-FPGA@400MHz"),
        ("PCIe-ASIC@1.5GHz", "CXL-ASIC@1.5GHz"),
    ):
        measured = fig13[profile]["dma_64b"]
        ref_value = reference.DMA_LATENCY_64B_NS[dma_name]
        pairs.append((measured, ref_value))
        detail[f"{dma_name}/dma64_lat"] = abs(measured - ref_value) / ref_value

    fig15 = (fig15_result or _shared_result("fig15")).series
    for profile in ("CXL-FPGA@400MHz", "CXL-ASIC@1.5GHz"):
        for tier, ref_value in reference.LOAD_BANDWIDTH_GBPS[profile].items():
            measured = fig15[profile][tier]
            pairs.append((measured, ref_value))
            detail[f"{profile}/{tier}_bw"] = abs(measured - ref_value) / ref_value
    for dma_name, profile in (
        ("PCIe-FPGA@400MHz", "CXL-FPGA@400MHz"),
        ("PCIe-ASIC@1.5GHz", "CXL-ASIC@1.5GHz"),
    ):
        measured = fig15[profile]["dma_64b"]
        ref_value = reference.DMA_BANDWIDTH_64B_GBPS[dma_name]
        pairs.append((measured, ref_value))
        detail[f"{dma_name}/dma64_bw"] = abs(measured - ref_value) / ref_value

    overall = mape(pairs)
    series = {"per_point": detail, "overall": {"mape": overall}}
    rows = [[k, f"{v * 100:.2f}%"] for k, v in sorted(detail.items())]
    rows.append(["OVERALL MAPE", f"{overall * 100:.2f}%"])
    text = render_table(
        ["calibration point", "abs. error"],
        rows,
        title="Simulation error vs. hardware reference (paper: ~3%)",
    )
    return ExperimentResult("mape", simulation_error.__doc__, series, text)


def fig4_programming_models() -> ExperimentResult:
    """Fig. 4: programming-model comparison (explicit/UM/Cohet)."""
    from repro.harness.programming_models import fig4_programming_models as run

    return run()


EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    "table1": table1_configurations,
    "fig4": fig4_programming_models,
    "table2": table2_comparison,
    "fig12": fig12_numa_latency,
    "fig13": fig13_load_latency,
    "fig14": fig14_dma_latency,
    "fig15": fig15_load_bandwidth,
    "fig16": fig16_dma_bandwidth,
    "fig17": fig17_rao_speedup,
    "fig18a": fig18a_deserialization,
    "fig18b": fig18b_serialization,
    "headline": headline_metrics,
    "mape": simulation_error,
}

#: The paper's tables/figures, in presentation order.  ``repro run all``
#: expands to exactly this set so its output stays comparable run-over-run
#: even as extension experiments (fan-outs, ...) join :data:`EXPERIMENTS`.
PAPER_EXPERIMENT_IDS: Tuple[str, ...] = tuple(EXPERIMENTS)


def register_experiment(
    name: str, runner: Callable[..., ExperimentResult], replace: bool = False
) -> None:
    """Add an experiment to the registry (sweeps pick it up for free).

    The runner must accept only JSON-representable keyword arguments so
    sweep specs can parameterize it.  Registration invalidates the
    cached signature inspection.
    """
    if name in EXPERIMENTS and not replace:
        raise ValueError(f"experiment {name!r} already registered")
    EXPERIMENTS[name] = runner
    _cached_signature.cache_clear()


@lru_cache(maxsize=None)
def _cached_signature(name: str, runner: Callable) -> "inspect.Signature":
    """Signature inspection is surprisingly costly and was recomputed
    per spec on every sweep expansion; cache it per registry entry
    (keyed on the runner too, so re-registration never serves a stale
    signature)."""
    return inspect.signature(runner)


def experiment_parameters(name: str) -> Dict[str, inspect.Parameter]:
    """Keyword parameters accepted by experiment ``name``.

    The sweep spec layer validates config overrides against this before
    any worker starts, so a typo'd parameter fails the whole sweep
    up-front instead of mid-run.
    """
    try:
        runner = EXPERIMENTS[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; options: {sorted(EXPERIMENTS)}"
        ) from None
    return dict(_cached_signature(name, runner).parameters)


def spec_parameters(name: str) -> Dict[str, inspect.Parameter]:
    """The JSON-representable subset of :func:`experiment_parameters`.

    Programmatic-only parameters cannot be expressed in a sweep spec,
    so the spec layer validates against this set to keep its
    fail-up-front guarantee.  Convention: name object-valued params
    with a ``_result`` suffix (like ``simulation_error``'s
    ``fig13_result`` precomputed handoffs) to keep them off the spec
    surface; annotations mentioning ``ExperimentResult`` are excluded
    as well.
    """
    return {
        key: param
        for key, param in experiment_parameters(name).items()
        if not key.endswith("_result")
        and "ExperimentResult" not in str(param.annotation)
    }


def run_experiment(name: str, **params) -> ExperimentResult:
    """Run one experiment by id (see :data:`EXPERIMENTS`).

    Extra keyword arguments are forwarded to the experiment function;
    unknown ones raise :class:`TypeError` naming the offenders.  A run
    of one of :data:`SHARED_EXPERIMENT_IDS` without parameters always
    simulates, so every pass over the paper set does the work of a
    fresh ``repro run all``, and replaces the result that headline and
    mape read.
    """
    accepted = experiment_parameters(name)
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise TypeError(
            f"experiment {name!r} does not accept parameter(s) "
            f"{', '.join(unknown)}; accepted: {sorted(accepted)}"
        )
    result = EXPERIMENTS[name](**params)
    if not params and name in SHARED_EXPERIMENT_IDS:
        _shared_results[name] = result
    return result


# Multi-device topology and workload-driven experiments register
# themselves on import; these must stay after the registry helpers so
# the module is self-contained for every consumer of EXPERIMENTS.
from repro.harness import topology_experiments as _topology_experiments  # noqa: E402,F401
from repro.harness import workload_experiments as _workload_experiments  # noqa: E402,F401
from repro.harness import fault_experiments as _fault_experiments  # noqa: E402,F401
