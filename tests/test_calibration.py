"""Calibration tests: SimCXL must match the paper's hardware numbers.

These are the repository's core acceptance tests: every latency and
bandwidth point of Figs. 13/15 (plus DMA at 64 B) must land within the
paper's reported simulation error (~3%).
"""

import pytest

from repro.calibration import reference
from repro.calibration.metrics import absolute_percentage_error, mape
from repro.calibration.microbench import CxlTestbench
from repro.config import asic_system, fpga_system

TOL = reference.TARGET_MAPE  # 3%


def within(measured, ref):
    assert measured == pytest.approx(ref, rel=TOL), (measured, ref)


# ------------------------- Latency calibration ------------------------
@pytest.mark.parametrize(
    "make,profile",
    [(fpga_system, "CXL-FPGA@400MHz"), (asic_system, "CXL-ASIC@1.5GHz")],
)
def test_load_latency_calibrated(make, profile):
    config = make()
    ref = reference.LOAD_LATENCY_NS[profile]
    within(CxlTestbench(config).latency_hmc_hit(trials=4).median_ns, ref["hmc_hit"])
    within(CxlTestbench(config).latency_llc_hit(trials=4).median_ns, ref["llc_hit"])
    within(CxlTestbench(config).latency_mem_hit(trials=4).median_ns, ref["mem_hit"])


@pytest.mark.parametrize(
    "make,name",
    [(fpga_system, "PCIe-FPGA@400MHz"), (asic_system, "PCIe-ASIC@1.5GHz")],
)
def test_dma_latency_calibrated(make, name):
    config = make()
    measured = CxlTestbench(config).dma_latency(64, repeats=9).median_ns
    within(measured, reference.DMA_LATENCY_64B_NS[name])


def test_dma_latency_curve_shape():
    """Fig. 14: flat below 8 KB, wire-dominated beyond."""
    config = fpga_system()
    lat = {
        size: CxlTestbench(config).dma_latency(size, repeats=3).median_ns
        for size in (64, 4096, 8192, 65536, 262144)
    }
    assert lat[4096] / lat[64] < 1.15
    assert lat[8192] / lat[64] < 1.25
    assert lat[262144] > 4 * lat[64]


# ------------------------ Bandwidth calibration -----------------------
@pytest.mark.parametrize(
    "make,profile",
    [(fpga_system, "CXL-FPGA@400MHz"), (asic_system, "CXL-ASIC@1.5GHz")],
)
def test_load_bandwidth_calibrated(make, profile):
    config = make()
    ref = reference.LOAD_BANDWIDTH_GBPS[profile]
    within(CxlTestbench(config).bandwidth_hmc_hit().bandwidth_gbps, ref["hmc_hit"])
    within(CxlTestbench(config).bandwidth_llc_hit().bandwidth_gbps, ref["llc_hit"])
    within(CxlTestbench(config).bandwidth_mem_hit().bandwidth_gbps, ref["mem_hit"])


@pytest.mark.parametrize(
    "make,name",
    [(fpga_system, "PCIe-FPGA@400MHz"), (asic_system, "PCIe-ASIC@1.5GHz")],
)
def test_dma_bandwidth_calibrated(make, name):
    config = make()
    measured = CxlTestbench(config).dma_bandwidth(64).bandwidth_gbps
    within(measured, reference.DMA_BANDWIDTH_64B_GBPS[name])


def test_dma_bandwidth_curve_shape():
    """Fig. 16: ~0.92 GB/s at 64 B rising to ~22.9 GB/s at 256 KB."""
    config = fpga_system()
    bw = {
        size: CxlTestbench(config).dma_bandwidth(size, descriptors=256).bandwidth_gbps
        for size in (64, 4096, 262144)
    }
    assert bw[64] < bw[4096] < bw[262144]
    within(bw[262144], reference.DMA_BANDWIDTH_GBPS[262144])


# ----------------------------- Headline -------------------------------
def test_headline_latency_reduction():
    """CXL.cache cuts 64B latency by ~68% vs. DMA (§VI-B.3)."""
    config = fpga_system()
    mem = CxlTestbench(config).latency_mem_hit(trials=4).median_ns
    dma = CxlTestbench(config).dma_latency(64, repeats=9).median_ns
    assert 1 - mem / dma == pytest.approx(0.68, abs=0.02)


def test_headline_bandwidth_ratio():
    """CXL.cache delivers ~14.4x DMA bandwidth at 64B (§VI-C.2)."""
    config = fpga_system()
    mem = CxlTestbench(config).bandwidth_mem_hit().bandwidth_gbps
    dma = CxlTestbench(config).dma_bandwidth(64).bandwidth_gbps
    assert mem / dma == pytest.approx(14.4, rel=0.05)


# ------------------------------ Metrics -------------------------------
def test_ape_and_mape():
    assert absolute_percentage_error(103, 100) == pytest.approx(0.03)
    assert mape([(103, 100), (97, 100)]) == pytest.approx(0.03)
    with pytest.raises(ValueError):
        absolute_percentage_error(1, 0)
    with pytest.raises(ValueError):
        mape([])


