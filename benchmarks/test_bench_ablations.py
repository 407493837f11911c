"""Ablation benchmarks for the design choices DESIGN.md calls out.

Not figures from the paper — these sweep the knobs whose calibrated
operating points produce the paper's results, showing each mechanism's
contribution.
"""

import dataclasses

import pytest
from conftest import run_and_print

from repro.cache.hierarchy import HierarchicalDomain
from repro.calibration.microbench import CxlTestbench
from repro.config import asic_system
from repro.harness.tables import render_series
from repro.nic.prefetcher import MultiStridePrefetcher
from repro.rao.harness import run_rao_comparison
from repro.rpc.cxl_rpc import CxlRpcPipeline
from repro.rpc.hyperprotobench import make_bench


class _Result:
    def __init__(self, series, text):
        self.series = series
        self.text = text


def test_bench_ablation_rao_pe_count(benchmark):
    """RAO PE parallelism: misses overlap, so RAND scales with PEs while
    CENTRAL (single hot line, locked) does not."""

    def run():
        series = {}
        for pes in (1, 2, 8):
            res = run_rao_comparison(
                asic_system(), patterns=("RAND", "CENTRAL"), ops=512, pe_count=pes
            )
            series[f"{pes}PE"] = {p: res[p].cxl_mops for p in res}
        return _Result(
            series,
            render_series("pattern", series, title="Ablation: RAO PE count (Mops)"),
        )

    result = run_and_print(benchmark, run)
    rand_scaling = result.series["8PE"]["RAND"] / result.series["1PE"]["RAND"]
    central_scaling = (
        result.series["8PE"]["CENTRAL"] / result.series["1PE"]["CENTRAL"]
    )
    assert rand_scaling > 4  # independent misses overlap across PEs
    # The hot line's lock serializes the RMW window, so CENTRAL scales
    # strictly worse than RAND.
    assert central_scaling < 0.85 * rand_scaling


def test_bench_ablation_hmc_size(benchmark):
    """HMC capacity drives STRIDE1 hit rates (and thus Fig. 17)."""

    def run():
        series = {"hit_rate": {}}
        for kb in (32, 128, 512):
            config = asic_system()
            device = dataclasses.replace(config.device, hmc_size=kb * 1024)
            res = run_rao_comparison(
                config.replace(device=device), patterns=("STRIDE1",), ops=512
            )
            series["hit_rate"][f"{kb}KB"] = res["STRIDE1"].cxl_hit_rate
        return _Result(
            series,
            render_series("hmc", series, title="Ablation: HMC size vs. hit rate"),
        )

    result = run_and_print(benchmark, run)
    rates = result.series["hit_rate"]
    assert rates["32KB"] <= rates["128KB"] <= rates["512KB"] + 1e-9


def test_bench_ablation_prefetcher_degree(benchmark):
    """Prefetch degree vs. serialization time on a flat bench."""

    def run():
        config = asic_system()
        bench = make_bench("Bench1", messages=100)
        pipeline = CxlRpcPipeline(config)
        base = pipeline.serialize_bench_cache(bench).total_us
        series = {"time_us": {"no-pf": base}, "gain": {"no-pf": 0.0}}
        for degree in (1, 2, 4, 8):
            pf = MultiStridePrefetcher(degree=degree)
            t = pipeline.serialize_bench_cache(bench, prefetcher=pf).total_us
            series["time_us"][f"deg{degree}"] = t
            series["gain"][f"deg{degree}"] = 1 - t / base
        return _Result(
            series,
            render_series("config", series, title="Ablation: prefetch degree"),
        )

    result = run_and_print(benchmark, run)
    gains = result.series["gain"]
    assert gains["deg4"] > gains["deg1"] > 0


def test_bench_ablation_outstanding_window(benchmark):
    """The LSU outstanding window bounds LLC-hit bandwidth (Fig. 15's
    14.1 GB/s needs >135 in-flight lines at a 576 ns round trip)."""

    def run():
        series = {"llc_bw_gbps": {}}
        for window in (16, 64, 256):
            config = asic_system()
            device = dataclasses.replace(config.device, max_outstanding=window)
            tb = CxlTestbench(config.replace(device=device))
            series["llc_bw_gbps"][window] = tb.bandwidth_llc_hit(
                count=1024
            ).bandwidth_gbps
        return _Result(
            series,
            render_series("window", series, title="Ablation: outstanding window"),
        )

    result = run_and_print(benchmark, run)
    bw = result.series["llc_bw_gbps"]
    assert bw[16] < bw[64] < bw[256]


def test_bench_ablation_rpc_nesting(benchmark):
    """Nesting depth is what defeats the prefetcher (Bench2's 3.6%)."""

    def run():
        config = asic_system()
        pipeline = CxlRpcPipeline(config)
        series = {"gain": {}}
        for name in ("Bench1", "Bench3", "Bench2"):
            bench = make_bench(name, messages=80)
            base = pipeline.serialize_bench_cache(bench).total_us
            pf = pipeline.serialize_bench_cache(bench, prefetch=True).total_us
            series["gain"][name] = 1 - pf / base
        return _Result(
            series,
            render_series("bench", series, title="Ablation: nesting vs. prefetch gain"),
        )

    result = run_and_print(benchmark, run)
    gains = result.series["gain"]
    assert gains["Bench2"] < gains["Bench1"]


def test_bench_ablation_hierarchical_coherence(benchmark):
    """Fabric-message reduction from two-level coherence as the
    supernode scales (the coherence-traffic-storm mitigation)."""

    def run():
        series = {"hierarchical": {}, "flat": {}, "reduction": {}}
        for children in (2, 4, 8):
            domain = HierarchicalDomain(children=children)
            accesses = 0
            for round_ in range(64):
                for i, child in enumerate(sorted(domain.locals)):
                    # 7/8 local working-set hits, 1/8 shared-line traffic.
                    if round_ % 8 == 0:
                        domain.access(child, 0x100, exclusive=True)
                    else:
                        domain.access(child, 0x10000 * (i + 1) + (round_ % 4) * 64)
                    accesses += 1
            hier = domain.total_fabric_messages
            flat = domain.flat_equivalent_messages(accesses)
            series["hierarchical"][children] = hier
            series["flat"][children] = flat
            series["reduction"][children] = 1 - hier / flat
        return _Result(
            series,
            render_series(
                "children",
                series,
                title="Ablation: hierarchical coherence fabric messages",
            ),
        )

    result = run_and_print(benchmark, run)
    for children, reduction in result.series["reduction"].items():
        assert reduction > 0.4  # local agents absorb most traffic
