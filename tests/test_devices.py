"""Tests for the device models: PMU, LSU, DMA engine."""

import gc
import weakref

import pytest

from repro.calibration.microbench import CxlTestbench
from repro.config import asic_system, fpga_system, system_by_name
from repro.devices.dma import DmaEngine
from repro.devices.lsu import LsuReport
from repro.devices.pmu import Pmu
from repro.sim.engine import Simulator
from repro.sim.stats import Histogram


# ------------------------------- PMU ----------------------------------
def test_pmu_latency_tracking():
    pmu = Pmu()
    pmu.issued(0, 100)
    pmu.completed(0, 350)
    assert pmu.latencies.median == 250


def test_pmu_unknown_completion_rejected():
    pmu = Pmu()
    with pytest.raises(KeyError):
        pmu.completed(7, 10)


def test_pmu_bandwidth_needs_samples():
    pmu = Pmu()
    pmu.issued(0, 0)
    pmu.completed(0, 10)
    with pytest.raises(ValueError):
        pmu.bandwidth_gbps(64)


# ------------------------------- LSU ----------------------------------
def test_lsu_hmc_hit_latency_exact():
    tb = CxlTestbench(fpga_system())
    report = tb.latency_hmc_hit(count=8, trials=2)
    assert report.latencies.median == tb.config.device.hmc_hit_ps


def test_lsu_latency_serializes_requests():
    tb = CxlTestbench(fpga_system())
    addrs = tb.lsu.sequential_lines(0x1000, 4)
    tb.lsu.warm_hmc(addrs)
    report = tb.lsu.run_latency(addrs)
    # 4 serialized HMC hits: total time = 4 x hit latency.
    assert tb.sim.now == 4 * tb.config.device.hmc_hit_ps


def test_lsu_bandwidth_pipelines():
    tb = CxlTestbench(asic_system())
    report = tb.bandwidth_hmc_hit(count=512)
    # Far beyond what serialized requests could reach (64B / 10ns = 6.4).
    assert report.bandwidth_gbps > 50


def test_lsu_exclusive_flag_propagates():
    tb = CxlTestbench(fpga_system())
    addrs = tb.lsu.sequential_lines(0x2000, 4)
    tb.lsu.run_latency(addrs, exclusive=True)
    from repro.cache.block import MesiState

    assert tb.device.hmc.peek(0x2000).state is MesiState.EXCLUSIVE


def test_lsu_reports_the_hmc_hits_of_its_own_run():
    """``hmc_hits`` counts one run's hits, not the HMC's lifetime total."""
    tb = CxlTestbench(asic_system())
    addrs = tb.lsu.sequential_lines(0x100000, 8)
    tb.lsu.warm_hmc(addrs)
    assert tb.lsu.run_latency(addrs).hmc_hits == 8
    assert tb.lsu.run_latency(addrs).hmc_hits == 8
    report = tb.lsu.run_bandwidth(addrs * 4)
    assert (report.hmc_hits, report.requests) == (32, 32)


def test_testbench_merge_adds_per_trial_hmc_hits():
    first = LsuReport(Histogram(), None, hmc_hits=3, requests=4)
    second = LsuReport(Histogram(), None, hmc_hits=5, requests=4)
    merged = CxlTestbench._merge(first, second)
    assert (merged.hmc_hits, merged.requests) == (8, 8)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP open item 6: latency trials merge into the PMU's one"
    " reused Histogram, so every trial but the last is lost",
)
def test_latency_trials_keep_one_sample_per_request():
    tb = CxlTestbench(system_by_name("fpga"), seed=107)
    report = tb.latency_mem_hit(trials=3, count=4)
    assert report.requests == 12
    assert len(report.latencies) == report.requests


@pytest.mark.parametrize("profile", ["fpga", "asic"])
def test_windowed_run_reports_each_loads_own_latency(monkeypatch, profile):
    """Four loads of each line are in flight at once (all miss the HMC),
    and each reports its own DCOH issue-to-completion time."""
    tb = CxlTestbench(system_by_name(profile))
    dcoh, sim = tb.lsu.dcoh, tb.sim
    read, own = dcoh.read, []

    def timed_read(addr, on_done, delay_ps=0, *args, **kwargs):
        issued = sim.now + delay_ps

        def done(result):
            own.append(sim.now - issued)
            on_done(result)

        read(addr, done, delay_ps, *args, **kwargs)

    monkeypatch.setattr(dcoh, "read", timed_read)
    report = tb.lsu.run_bandwidth(tb.lsu.sequential_lines(0x100000, 8) * 4)
    assert (report.requests, report.hmc_hits) == (32, 0)
    assert len(set(own)) == 32
    assert sorted(report.latencies.samples) == sorted(own)


def _dies_on_del(measure) -> bool:
    """Run ``measure`` on a new testbench; are its system, LSU and DMA
    engine gone on ``del``?"""
    tb = CxlTestbench(asic_system())
    measure(tb)
    refs = [weakref.ref(tb.system), weakref.ref(tb.lsu), weakref.ref(tb.dma)]
    del tb
    return all(ref() is None for ref in refs)


@pytest.mark.parametrize(
    "measure",
    [
        lambda tb: tb.latency_mem_hit(count=4, trials=2),
        lambda tb: tb.bandwidth_mem_hit(count=64),
        lambda tb: tb.dma_latency(64, repeats=4),
        lambda tb: tb.dma_bandwidth(64, descriptors=64),
    ],
    ids=["latency_mem_hit", "bandwidth_mem_hit", "dma_latency", "dma_bandwidth"],
)
def test_finished_runs_leave_no_reference_cycle(measure):
    """A testbench's system is freed on ``del``, without waiting for the
    cyclic collector."""
    gc.collect()
    gc.disable()
    try:
        assert _dies_on_del(measure)
    finally:
        gc.enable()


# ------------------------------- DMA ----------------------------------
def test_dma_one_shot_latency_matches_model():
    sim = Simulator()
    config = fpga_system()
    dma = DmaEngine(sim, config.dma)
    report = dma.measure_latency(64, repeats=5)
    assert report.latencies.median == config.dma.transfer_ps(64)


def test_dma_latency_flat_below_8k():
    config = fpga_system()
    small = DmaEngine(Simulator(), config.dma).measure_latency(64, repeats=3)
    mid = DmaEngine(Simulator(), config.dma).measure_latency(8192, repeats=3)
    assert mid.median_ns / small.median_ns < 1.25  # setup dominates


def test_dma_bandwidth_rises_with_size():
    config = fpga_system()
    bw64 = DmaEngine(Simulator(), config.dma).measure_bandwidth(64).bandwidth_gbps
    bw256k = DmaEngine(Simulator(), config.dma).measure_bandwidth(262144, descriptors=64).bandwidth_gbps
    assert bw64 < 1.0
    assert bw256k > 20.0


def test_dma_invalid_size():
    dma = DmaEngine(Simulator(), fpga_system().dma)
    with pytest.raises(ValueError):
        dma.transfer(0)


def test_dma_rmw_pair_serialized():
    config = asic_system()
    dma = DmaEngine(Simulator(), config.dma)
    assert dma.rmw_pair_ps() == 2 * config.dma.transfer_ps(64)

