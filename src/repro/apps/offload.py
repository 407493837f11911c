"""Generic offload evaluation: replay an access trace on both fabrics.

An accelerator kernel is, to the interconnect, a stream of cacheline
touches.  :class:`AccessTraceEngine` replays such a stream through

* a CXL type-1 device (DCOH + HMC, coherent loads/stores), and
* a PCIe device (descriptor-driven 64B DMA, ordered writes),

and reports the end-to-end time of each, the HMC hit rate, and the
speedup — the same methodology the paper's killer apps use, exposed for
any workload that can describe its memory behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from repro.calibration.microbench import CxlTestbench
from repro.config.system import SystemConfig
from repro.cxl.transactions import DcohResult
from repro.system import SystemBuilder


@dataclass(frozen=True)
class Access:
    """One memory touch of the offloaded kernel."""

    addr: int
    write: bool = False


@dataclass
class OffloadComparison:
    name: str
    accesses: int
    cxl_us: float
    pcie_us: float
    hmc_hit_rate: float

    @property
    def speedup(self) -> float:
        return self.pcie_us / self.cxl_us


class AccessTraceEngine:
    """Replays an access trace on the CXL and PCIe substrates."""

    def __init__(self, config: SystemConfig, compute_ps_per_access: int = 2_000) -> None:
        if compute_ps_per_access < 0:
            raise ValueError(
                "compute_ps_per_access must be non-negative; "
                f"got {compute_ps_per_access}"
            )
        self.config = config
        self.compute_ps = compute_ps_per_access

    # ------------------------------------------------------------------
    # CXL side: coherent loads/stores through the DCOH
    # ------------------------------------------------------------------
    def run_cxl(self, trace: Sequence[Access]) -> Tuple[float, float]:
        """Returns ``(elapsed_us, hmc_hit_rate)``."""
        bench = CxlTestbench(self.config)
        dcoh = bench.device.dcoh
        sim = bench.sim
        pending = list(trace)
        index = [0]
        hits = [0]

        def next_access() -> None:
            if index[0] >= len(pending):
                return
            access = pending[index[0]]
            index[0] += 1

            def done(result: DcohResult) -> None:
                if result.hmc_hit:
                    hits[0] += 1
                sim.schedule_after(self.compute_ps, next_access)

            if access.write:
                dcoh.write(access.addr, done)
            else:
                dcoh.read(access.addr, done)

        start = sim.now
        next_access()
        sim.run()
        elapsed_us = (sim.now - start) / 1e6
        hit_rate = hits[0] / len(pending) if pending else 0.0
        return elapsed_us, hit_rate

    # ------------------------------------------------------------------
    # PCIe side: every touch is a 64B DMA descriptor; writes are ordered
    # ------------------------------------------------------------------
    def run_pcie(self, trace: Sequence[Access]) -> float:
        system = SystemBuilder(self.config).build("pcie-dma")
        sim = system.sim
        dma = system.node("dma")
        pending = list(trace)
        index = [0]

        def next_access() -> None:
            if index[0] >= len(pending):
                return
            index[0] += 1

            def done() -> None:
                sim.schedule_after(self.compute_ps, next_access)

            dma.transfer(64, done)

        start = sim.now
        next_access()
        sim.run()
        return (sim.now - start) / 1e6

    def compare(self, name: str, trace: Sequence[Access]) -> OffloadComparison:
        cxl_us, hit_rate = self.run_cxl(trace)
        pcie_us = self.run_pcie(trace)
        return OffloadComparison(
            name=name,
            accesses=len(trace),
            cxl_us=cxl_us,
            pcie_us=pcie_us,
            hmc_hit_rate=hit_rate,
        )
