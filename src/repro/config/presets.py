"""Calibrated presets.

Every constant below is the result of fitting the path model of
:mod:`repro.config.system` against the paper's hardware measurements
(see ``repro.calibration.reference``).  The derivations:

FPGA @ 400 MHz (2500 ps/cycle)
    * HMC hit 115 ns  = 46 device cycles (4+6+8+18+6+4).
    * LLC hit 576 ns  = 45 ns device pre-host + 2x190 ns PHY + 21 ns
      ingress + 80 ns LLC/dir + 50 ns device post-host.
    * Mem hit 688 ns  = LLC hit + 2x39.09 ns mem-interface + 33.82 ns
      DDR5 closed-page access.
    * HMC-hit bandwidth 25.07 GB/s emerges from a 1-cycle HMC service
      interval; LLC-hit 14.10 GB/s from a 4.26 ns home-agent II; memory
      13.49 GB/s from a 4.41 ns LLC-miss II.
    * DMA@64B 2170 ns = 546 engine cycles + 800 ns fixed PHY + wire;
      pipelined 64B descriptors every 64.6 ns + wire -> 0.92 GB/s, and
      22.8 GB/s at 256 KB with 60 B TLP headers on a 25.6 GB/s link.

ASIC @ 1.5 GHz (667 ps/cycle)
    * HMC hit 10 ns = 15 cycles (2+2+3+4+2+2).
    * LLC hit 217 ns with a 53.33 ns ASIC PHY; mem hit 260 ns with a
      4.59 ns memory-interface hop (calibrated to the paper's
      frequency-scaled projection).
    * Bandwidth targets 90.22 / 47.41 / 46.10 GB/s give service
      intervals of 0.705 / 1.245 / 1.262 ns.
    * DMA: same 546 engine cycles at 1.5 GHz + 800 ns PHY -> 1169 ns;
      descriptor II 30.33 ns -> 1.82 GB/s at 64 B.
"""

from __future__ import annotations

import dataclasses

from repro.config.system import (
    DeviceProfile,
    DmaParams,
    DramParams,
    HostParams,
    NicRaoParams,
    RpcParams,
    SystemConfig,
    TestbedConfig,
)

FPGA_PERIOD_PS = 2_500    # 400 MHz
ASIC_PERIOD_PS = 667      # ~1.5 GHz

FPGA_400 = DeviceProfile(
    name="CXL-FPGA@400MHz",
    clock_period_ps=FPGA_PERIOD_PS,
    lsu_issue_cycles=4,
    dcoh_request_cycles=6,
    hmc_tag_cycles=8,
    hmc_data_cycles=18,
    dcoh_fill_cycles=6,
    hmc_fill_cycles=4,
    dcoh_response_cycles=6,
    lsu_complete_cycles=4,
    phy_oneway_ps=190_000,
    hmc_service_ii_ps=2_500,
    ncp_push_ps=190_000 + 80_000,
)

ASIC_1500 = DeviceProfile(
    name="CXL-ASIC@1.5GHz",
    clock_period_ps=ASIC_PERIOD_PS,
    lsu_issue_cycles=2,
    dcoh_request_cycles=2,
    hmc_tag_cycles=3,
    hmc_data_cycles=4,
    dcoh_fill_cycles=2,
    hmc_fill_cycles=1,
    dcoh_response_cycles=2,
    lsu_complete_cycles=2,
    phy_oneway_ps=53_330,
    hmc_service_ii_ps=705,
    ncp_push_ps=53_330 + 80_000,
)

PCIE_FPGA_400 = DmaParams(
    name="PCIe-FPGA@400MHz",
    clock_period_ps=FPGA_PERIOD_PS,
    setup_engine_cycles=546,
    phy_fixed_ps=800_000,
    desc_ii_ps=64_600,
    mmio_write_ps=450_000,
)

PCIE_ASIC_1500 = DmaParams(
    name="PCIe-ASIC@1.5GHz",
    clock_period_ps=ASIC_PERIOD_PS,
    setup_engine_cycles=546,
    phy_fixed_ps=800_000,
    desc_ii_ps=30_330,
    mmio_write_ps=300_000,
)

_FPGA_HOST = HostParams()

_ASIC_HOST = dataclasses.replace(
    HostParams(),
    memif_oneway_ps=4_590,
    host_path_ii_ps=1_245,
    mem_path_ii_ps=1_262,
)


def fpga_system(name: str = "simcxl-fpga") -> SystemConfig:
    """SimCXL configured to match the CXL-FPGA/PCIe-FPGA testbed."""
    return SystemConfig(
        name=name,
        host=_FPGA_HOST,
        device=FPGA_400,
        dma=PCIE_FPGA_400,
        rao=NicRaoParams(),
        rpc=RpcParams(),
    )


def asic_system(name: str = "simcxl-asic") -> SystemConfig:
    """SimCXL frequency-scaled to a production-grade 1.5 GHz ASIC."""
    return SystemConfig(
        name=name,
        host=_ASIC_HOST,
        device=ASIC_1500,
        dma=PCIE_ASIC_1500,
        rao=NicRaoParams(),
        rpc=RpcParams(),
    )


#: Short profile names accepted by experiment specs (``profile=...``).
SYSTEMS = {
    "fpga": fpga_system,
    "asic": asic_system,
}


class UnknownProfileError(ValueError):
    """A profile string does not name a calibrated system preset."""


def system_by_name(profile: str) -> SystemConfig:
    """Build a :class:`SystemConfig` from a short profile name.

    Accepts the keys of :data:`SYSTEMS` (``"fpga"``/``"asic"``); used by
    the experiment orchestration layer so sweep specs can select a
    calibrated system with a plain JSON string.  This is the single
    validation point for profile strings — every experiment routes its
    ``profile`` argument through here, so an unknown name fails with a
    :class:`UnknownProfileError` listing the valid options instead of
    silently skipping a ``profile == ...`` branch somewhere downstream.
    """
    try:
        make = SYSTEMS[profile]
    except KeyError:
        raise UnknownProfileError(
            f"unknown system profile {profile!r}; valid profiles: "
            f"{', '.join(sorted(SYSTEMS))}"
        ) from None
    return make()


def testbed_table1_config() -> TestbedConfig:
    return TestbedConfig()


def simcxl_table1_config() -> dict:
    """Table I, SimCXL column."""
    return {
        "Linux kernel version": "Modified v6.12",
        "CPU type": "X86O3CPU",
        "CPU cores": "48",
        "Local DRAM type": "DDR5 4400",
        "#Memory channels/NUMA": "2",
        "DDR DRAM size": "32GB",
        "LLC size": "96MB",
        "CXL&PCIe accelerators": "CXL-&PCIe-NIC models",
        "HMC size": "128KB, 4 ways",
        "CXL memory expander": "Memory expander model",
    }


# Fig. 12: calibrated round-trip distance (ps) added to a mem-hit load
# when the target page lives on NUMA node 0..7; the CXL device hangs off
# node 7 (socket 1, SNC-4).  Values reproduce the measured medians
# 758/761/770/776/710/708/693/688 ns.
NUMA_EXTRA_PS = {
    0: 70_000,
    1: 73_000,
    2: 82_000,
    3: 88_000,
    4: 22_000,
    5: 20_000,
    6: 5_000,
    7: 0,
}
