"""RAO evaluation harness: CXL-NIC vs. PCIe-NIC over CircusTent (Fig. 17)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.config.system import SystemConfig
from repro.nic.cxl_nic import CxlRaoNic
from repro.nic.pcie_nic import PcieRaoNic
from repro.rao.circustent import CIRCUSTENT_PATTERNS, make_workload
from repro.system import SystemBuilder


@dataclass
class RaoComparison:
    """Per-pattern throughput for the two NIC designs."""

    pattern: str
    pcie_mops: float
    cxl_mops: float
    cxl_hit_rate: float

    @property
    def speedup(self) -> float:
        return self.cxl_mops / self.pcie_mops


def run_rao_comparison(
    config: SystemConfig,
    patterns: Sequence[str] = CIRCUSTENT_PATTERNS,
    ops: int = 2048,
    table_bytes: int = 1 << 30,
    seed: int = 7,
    pe_count: Optional[int] = None,
) -> Dict[str, RaoComparison]:
    """Run every pattern on both NICs; returns comparisons keyed by name.

    Each pattern runs on a freshly built ``"rao-pcie"`` system and on
    its own copy of one ``"rao-cxl"`` system whose HMC was warmed once
    per call: every pattern but the last runs on a fork of the warmed
    system (:meth:`~repro.system.BuiltSystem.fork`) and the last on the
    warmed system itself, so patterns still share no cache state.
    """
    builder = SystemBuilder(config)
    warmed = builder.build("rao-cxl", pe_count=pe_count)
    warmed.node("cxl-nic").warm()
    results: Dict[str, RaoComparison] = {}
    last = len(patterns) - 1
    for index, pattern in enumerate(patterns):
        workload = make_workload(pattern, ops=ops, table_bytes=table_bytes, seed=seed)

        pcie: PcieRaoNic = builder.build("rao-pcie").node("pcie-nic")
        pcie_run = pcie.run(workload.requests)

        system = warmed if index == last else warmed.fork()
        cxl: CxlRaoNic = system.node("cxl-nic")
        cxl_run = cxl.run(workload.requests)

        accesses = cxl.hmc_hits + cxl.hmc_misses
        results[pattern] = RaoComparison(
            pattern=pattern,
            pcie_mops=pcie_run.throughput_mops,
            cxl_mops=cxl_run.throughput_mops,
            cxl_hit_rate=cxl.hmc_hits / accesses if accesses else 0.0,
        )
    return results
