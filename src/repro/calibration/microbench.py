"""Calibration microbenchmark testbench.

Builds the §VI-A hardware through the :mod:`repro.system` construction
layer — the ``"microbench"`` topology assembles an LSU behind a type-1
CXL device, the shared LLC, host memory, and a DMA engine — then runs
the four preconditioned measurements (HMC hit, LLC hit, mem hit, DMA)
for latency and bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.config.system import SystemConfig
from repro.devices.dma import DmaReport
from repro.devices.lsu import LsuReport
from repro.mem.address import CACHELINE
from repro.system import SystemBuilder


class CxlTestbench:
    """One-shot testbench; build a fresh instance per measurement."""

    def __init__(self, config: SystemConfig, seed: int = 1234) -> None:
        self.config = config
        self.system = SystemBuilder(config).build("microbench", seed=seed)
        self.sim = self.system.sim
        self.memif = self.system.memif
        self.controller = self.system.host_controller
        self.region = self.system.host_region
        self.llc = self.system.llc
        self.device = self.system.node("cxl-dev")
        self.lsu = self.system.node("lsu")
        self.dma = self.system.node("dma")
        self.topology = self.system.node("noc")

    # ------------------------------------------------------------------
    # Fig. 13 / Fig. 15 tiers
    # ------------------------------------------------------------------
    def _addresses(self, count: int, base: int = 0x100000) -> List[int]:
        return self.lsu.sequential_lines(base, count)

    def latency_hmc_hit(self, count: int = 32, trials: int = 32) -> LsuReport:
        """Repeating address sequences keep hitting the HMC."""
        addrs = self._addresses(count)
        self.lsu.warm_hmc(addrs)
        return self.lsu.run_latency(addrs * trials)

    def latency_llc_hit(self, count: int = 32, trials: int = 32) -> LsuReport:
        """CLDEMOTE pushes the lines to the LLC before each trial."""
        samples = None
        base = 0x100000
        for trial in range(trials):
            addrs = self._addresses(count, base + trial * count * CACHELINE * 2)
            for addr in addrs:
                self.llc.demote(addr)
            report = self.lsu.run_latency(addrs)
            samples = self._merge(samples, report)
        return samples

    def latency_mem_hit(self, count: int = 32, trials: int = 32, node: int = 7) -> LsuReport:
        """CLFLUSH pushes the lines all the way to memory; NUMA distance
        selects which node's memory the pages live on (Fig. 12)."""
        samples = None
        base = 0x200000
        extra = self.topology.extra_ps(node)
        for trial in range(trials):
            addrs = self._addresses(count, base + trial * count * CACHELINE * 2)
            for addr in addrs:
                self.llc.flush(addr)
            report = self.lsu.run_latency(addrs, extra_rt_ps=extra)
            samples = self._merge(samples, report)
        return samples

    @staticmethod
    def _merge(acc: Optional[LsuReport], new: LsuReport) -> LsuReport:
        if acc is None:
            return new
        acc.latencies.extend(new.latencies.samples)
        return LsuReport(
            latencies=acc.latencies,
            bandwidth_gbps=None,
            hmc_hits=acc.hmc_hits + new.hmc_hits,
            requests=acc.requests + new.requests,
        )

    def bandwidth_hmc_hit(self, count: int = 2048) -> LsuReport:
        addrs = self._addresses(count)
        self.lsu.warm_hmc(addrs)
        return self.lsu.run_bandwidth(addrs)

    def bandwidth_llc_hit(self, count: int = 2048) -> LsuReport:
        addrs = self._addresses(count)
        for addr in addrs:
            self.llc.demote(addr)
        return self.lsu.run_bandwidth(addrs)

    def bandwidth_mem_hit(self, count: int = 2048) -> LsuReport:
        addrs = self._addresses(count)
        for addr in addrs:
            self.llc.flush(addr)
        return self.lsu.run_bandwidth(addrs)

    # ------------------------------------------------------------------
    # DMA measurements (Figs. 14/16)
    # ------------------------------------------------------------------
    def dma_latency(self, size: int = 64, repeats: int = 100) -> DmaReport:
        return self.dma.measure_latency(size, repeats=repeats)

    def dma_bandwidth(self, size: int = 64, descriptors: int = 2048) -> DmaReport:
        return self.dma.measure_bandwidth(size, descriptors=descriptors)
