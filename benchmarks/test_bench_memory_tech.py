"""Ablation: device-memory technology under the CXL.mem RPC path.

§IV-B.3 lets the device memory use DDR, NVM, or HBM models; this bench
sweeps the technology under a CXL.mem access stream (the serializer's
local reads) and shows the latency/throughput consequences.
"""

from conftest import run_and_print

from repro.config import asic_system
from repro.harness.tables import render_series
from repro.interconnect.flexbus import FlexBus
from repro.mem.address import AddressRange
from repro.mem.technologies import TECHNOLOGIES, make_controller, nominal_read_ns
from repro.cxl.mem import CxlMemPath
from repro.sim.engine import Simulator


class _Result:
    def __init__(self, series, text):
        self.series = series
        self.text = text


def test_bench_device_memory_technology(benchmark):
    def run():
        config = asic_system()
        series = {"h2d_line_ns": {}, "media_read_ns": {}}
        hdm = AddressRange(1 << 30, (1 << 30) + (1 << 24), "hdm")
        for tech in sorted(TECHNOLOGIES):
            sim = Simulator()
            flexbus = FlexBus(sim, config.device)
            controller = make_controller(tech, channels=1, seed=3)
            path = CxlMemPath(
                sim, config.host, config.device, flexbus, hdm, controller
            )
            # Median of a short access train (skip refresh window).
            sim.now = 400_000
            samples = sorted(
                path.access_ps((1 << 30) + i * 64) for i in range(33)
            )
            series["h2d_line_ns"][tech] = samples[len(samples) // 2] / 1000
            series["media_read_ns"][tech] = nominal_read_ns(tech)
        return _Result(
            series,
            render_series(
                "technology",
                series,
                title="Ablation: device-memory technology (CXL.mem line access)",
            ),
        )

    result = run_and_print(benchmark, run)
    line = result.series["h2d_line_ns"]
    # DRAM-class technologies are close; NVM is far slower; HBM's
    # latency is comparable to DDR (its win is bandwidth, not latency).
    assert line["nvm"] > 2 * line["ddr5"]
    assert abs(line["hbm"] - line["ddr5"]) / line["ddr5"] < 0.25
    # The PHY round trip dominates DRAM-class H2D latency.
    phy_rt_ns = 2 * asic_system().device.phy_oneway_ps / 1000
    assert line["ddr5"] > phy_rt_ns
