"""Configuration dataclasses for SimCXL.

All latency fields are integer picoseconds unless the name says
otherwise.  Device-side costs are expressed in device-clock cycles so
that frequency scaling (FPGA@400MHz -> ASIC@1.5GHz) follows the paper's
methodology: scale the cycle-denominated portion, keep host-side
nanosecond costs fixed or re-calibrate them per profile.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

CACHELINE = 64


@dataclass(frozen=True)
class DramParams:
    """DDR5 bank timing (closed-page controller policy)."""

    trcd_ps: int = 16_000
    tcl_ps: int = 16_000
    trp_ps: int = 16_000
    burst_ps: int = 1_820          # 64 B via two 32-bit subchannels at 4400 MT/s
    trfc_ps: int = 295_000         # refresh cycle time
    trefi_ps: int = 3_900_000      # refresh interval
    banks: int = 32
    row_bytes: int = 8_192
    jitter_ps: int = 4_000         # controller arbitration jitter (+/-)

    @property
    def closed_access_ps(self) -> int:
        """Activate + CAS + burst: the common closed-page access cost."""
        return self.trcd_ps + self.tcl_ps + self.burst_ps

    @property
    def row_hit_ps(self) -> int:
        return self.tcl_ps + self.burst_ps

    @property
    def row_conflict_ps(self) -> int:
        return self.trp_ps + self.closed_access_ps


@dataclass(frozen=True)
class HostParams:
    """Host-side (CPU socket) parameters, shared by all device profiles."""

    llc_size: int = 96 * 1024 * 1024
    llc_ways: int = 12
    llc_access_ps: int = 80_000        # LLC lookup + directory check
    home_ingress_ps: int = 21_000      # host ingress queue to home agent
    memif_oneway_ps: int = 39_090      # memory-interface routing, each way
    host_path_ii_ps: int = 4_260       # home-agent initiation interval
    mem_path_ii_ps: int = 4_410        # end-to-end II for LLC-miss requests
    dram: DramParams = field(default_factory=DramParams)
    mem_channels: int = 2
    dram_size: int = 32 * 1024 * 1024 * 1024


@dataclass(frozen=True)
class DeviceProfile:
    """A CXL device implementation point (FPGA@400MHz or ASIC@1.5GHz).

    The D2H load path decomposes as::

        lsu_issue -> dcoh_request -> hmc_tag --hit--> hmc_data
                                             --miss-> phy -> host ...
        ... return: phy -> dcoh_fill -> hmc_fill -> dcoh_response -> lsu_complete
    """

    name: str
    clock_period_ps: int
    lsu_issue_cycles: int
    dcoh_request_cycles: int
    hmc_tag_cycles: int
    hmc_data_cycles: int
    dcoh_fill_cycles: int
    hmc_fill_cycles: int
    dcoh_response_cycles: int
    lsu_complete_cycles: int
    phy_oneway_ps: int
    hmc_service_ii_ps: int
    hmc_size: int = 128 * 1024
    hmc_ways: int = 4
    max_outstanding: int = 256
    ncp_push_ps: int = 0  # filled by presets: phy + LLC write for NC-P

    @property
    def freq_mhz(self) -> float:
        return 1_000_000 / self.clock_period_ps

    def cycles_ps(self, n: int) -> int:
        return n * self.clock_period_ps

    @property
    def hmc_hit_ps(self) -> int:
        """Round-trip LSU latency for an HMC hit."""
        total_cycles = (
            self.lsu_issue_cycles
            + self.dcoh_request_cycles
            + self.hmc_tag_cycles
            + self.hmc_data_cycles
            + self.dcoh_response_cycles
            + self.lsu_complete_cycles
        )
        return self.cycles_ps(total_cycles)

    @property
    def pre_host_ps(self) -> int:
        """Device-side cost before a miss leaves for the host."""
        return self.cycles_ps(
            self.lsu_issue_cycles + self.dcoh_request_cycles + self.hmc_tag_cycles
        )

    @property
    def post_host_ps(self) -> int:
        """Device-side cost after the host response lands."""
        return self.cycles_ps(
            self.dcoh_fill_cycles
            + self.hmc_fill_cycles
            + self.dcoh_response_cycles
            + self.lsu_complete_cycles
        )


@dataclass(frozen=True)
class DmaParams:
    """PCIe DMA engine timing.

    One-shot transfer latency = engine setup + fixed PHY round trip +
    wire time; pipelined throughput is one descriptor every
    ``desc_ii_ps`` plus the wire time of its payload.
    """

    name: str
    clock_period_ps: int
    setup_engine_cycles: int = 546
    phy_fixed_ps: int = 800_000
    desc_ii_ps: int = 64_600
    max_payload: int = 512
    tlp_header_bytes: int = 60
    raw_link_gbps: float = 25.6
    mmio_write_ps: int = 450_000
    mmio_read_ps: int = 900_000

    @property
    def setup_ps(self) -> int:
        return self.setup_engine_cycles * self.clock_period_ps + self.phy_fixed_ps

    def wire_ps(self, size_bytes: int) -> int:
        """Time on the link for ``size_bytes`` of payload, TLP-segmented."""
        if size_bytes <= 0:
            return 0
        full, rem = divmod(size_bytes, self.max_payload)
        wire_bytes = full * (self.max_payload + self.tlp_header_bytes)
        if rem:
            wire_bytes += rem + self.tlp_header_bytes
        return round(wire_bytes / self.raw_link_gbps * 1_000)

    def transfer_ps(self, size_bytes: int) -> int:
        """One-shot DMA latency for a transfer of ``size_bytes``."""
        return self.setup_ps + self.wire_ps(size_bytes)

    def pipelined_ps(self, size_bytes: int) -> int:
        """Per-descriptor cost in a fully pipelined descriptor stream."""
        return self.desc_ii_ps + self.wire_ps(size_bytes)


@dataclass(frozen=True)
class NicRaoParams:
    """RAO offloading costs shared by the NIC designs (§V-A)."""

    request_proc_ps: int = 45_500   # RX parse + queue + TX response
    modify_ps: int = 4_000          # ALU read-modify-write
    dirty_evict_ps: int = 120_000   # GO-WritePull round for a dirty victim
    pe_access_cycles: int = 4       # PE issue/complete stages per DCOH access
    pe_count: int = 1   # fig. 17 operating point; sweep via ablation bench


@dataclass(frozen=True)
class RpcParams:
    """RPC (de)serialization pipeline costs (§V-B), ASIC-grade NIC."""

    # Common decode/encode engine.
    parse_ps: int = 150_000            # RX header + schema-table lookup
    decode_field_ps: int = 6_000
    decode_byte_ps: int = 600
    decode_nest_ps: int = 25_000
    encode_fixed_ps: int = 120_000
    encode_field_ps: int = 5_000
    encode_byte_ps: int = 400
    encode_nest_ps: int = 20_000
    # RpcNIC (PCIe) specifics.
    flush_fixed_ps: int = 500_000      # one-shot DMA flush, engine-visible
    flush_byte_ps: int = 80            # staging+wire cost exposed per byte
    dsa_field_ps: int = 45_000         # DSA copy per non-contiguous field
    dsa_byte_ps: int = 150
    mmio_doorbell_ps: int = 300_000
    dma_pull_fixed_ps: int = 500_000
    dma_pull_byte_ps: int = 150
    # CXL-NIC specifics.
    ncp_ring_update_ps: int = 20_000   # ring-buffer update via NC-P
    cxl_mem_field_ps: int = 6_000      # CPU store of one field via CXL.mem
    cxl_mem_byte_ps: int = 100
    notify_ps: int = 50_000
    cache_miss_ps: int = 217_000       # CXL.cache fetch: freshly built
                                       # objects still sit in the host LLC
    cache_hit_ps: int = 10_000         # HMC hit (ASIC)
    chase_overlap_ps: int = 70_000     # fetch front-end runs ahead of the
                                       # encoder by ~one block's encode time
    desc_overlap: int = 4              # outstanding descriptor-walk fetches
    body_overlap: int = 8              # outstanding fetches for bulk bytes


@dataclass(frozen=True)
class SystemConfig:
    """A complete simulated platform: host + device + DMA + app params."""

    name: str
    host: HostParams
    device: DeviceProfile
    dma: DmaParams
    rao: NicRaoParams = field(default_factory=NicRaoParams)
    rpc: RpcParams = field(default_factory=RpcParams)

    def replace(self, **kwargs) -> "SystemConfig":
        return dataclasses.replace(self, **kwargs)

    # Derived end-to-end medians; used by calibration and tests.
    @property
    def llc_hit_ps(self) -> int:
        return (
            self.device.pre_host_ps
            + 2 * self.device.phy_oneway_ps
            + self.host.home_ingress_ps
            + self.host.llc_access_ps
            + self.device.post_host_ps
        )

    @property
    def mem_hit_ps(self) -> int:
        return (
            self.llc_hit_ps
            + 2 * self.host.memif_oneway_ps
            + self.host.dram.closed_access_ps
        )


@dataclass(frozen=True)
class TestbedConfig:
    """Table I: the physical testbed the paper calibrated against."""

    linux_kernel: str = "v6.5.0"
    cpu_type: str = "Xeon Platinum 8468V"
    cpu_cores: int = 48
    dram_type: str = "DDR5 4800"
    mem_channels_per_numa: int = 2
    dram_size: str = "1TB"
    llc_size: str = "97.5MB"
    accelerators: str = "Intel Agilex I-Series FPGA"
    hmc: str = "128KB, 4 ways"
    cxl_expander: str = "Samsung memory expander"

    def rows(self) -> Dict[str, str]:
        return {
            "Linux kernel version": self.linux_kernel,
            "CPU type": self.cpu_type,
            "CPU cores": str(self.cpu_cores),
            "Local DRAM type": self.dram_type,
            "#Memory channels/NUMA": str(self.mem_channels_per_numa),
            "DDR DRAM size": self.dram_size,
            "LLC size": self.llc_size,
            "CXL&PCIe accelerators": self.accelerators,
            "HMC size": self.hmc,
            "CXL memory expander": self.cxl_expander,
        }
