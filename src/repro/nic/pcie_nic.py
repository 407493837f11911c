"""PCIe-NIC RAO offload (Fig. 8a).

Every RAO is an indivisible read-modify-write executed over PCIe DMA:
one DMA read, the ALU op, one DMA write.  PCIe's relaxed ordering and
split transactions cannot guarantee that a later read will not pass an
earlier write to the same address, so the NIC conservatively waits for
each write's acknowledgement before issuing the next RAO — the
serialization that caps PCIe RAO throughput (§V-A.1).
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.config.system import SystemConfig
from repro.devices.dma import DmaEngine
from repro.nic.base import HostValues, NicBase, RaoRunResult
from repro.rao.circustent import RaoRequest
from repro.rao.ops import apply_atomic
from repro.sim.engine import Simulator


class PcieRaoNic(NicBase):
    """RAO offloading on a conventional PCIe NIC."""

    def __init__(
        self,
        sim: Simulator,
        config: SystemConfig,
        values: Optional[HostValues] = None,
        name: str = "pcie-nic",
    ) -> None:
        super().__init__(sim, name, values)
        self.config = config
        self.dma = DmaEngine(sim, config.dma, name=f"{name}.dma")
        # Per-RAO costs, worked out once from the frozen profiles.
        self._load_ps = config.dma.transfer_ps(64)
        self._rao_ps = (
            config.rao.request_proc_ps + self.dma.rmw_pair_ps() + config.rao.modify_ps
        )
        self.reads_issued = 0
        self.writes_issued = 0

    def run(self, requests: List[RaoRequest]) -> RaoRunResult:
        """Process the request stream to completion.

        The NIC is alone on its DMA engine and strictly serial, so each
        64 B transfer (index loads, then the RMW pair) starts the moment
        the previous one completes.  A RAO therefore costs its RX and TX
        stages (``request_proc_ps``), one DMA transfer per index load,
        the read/write pair (``DmaEngine.rmw_pair_ps``) and the ALU op,
        and fires one event, at the end of its TX stage.
        """
        pending = list(requests)
        start_ps = self.sim.now
        reads_before, writes_before = self.reads_issued, self.writes_issued
        self._issue(iter(pending))
        self.sim.run()
        return RaoRunResult(
            ops=len(pending),
            elapsed_ps=self.sim.now - start_ps,
            reads_issued=self.reads_issued - reads_before,
            writes_issued=self.writes_issued - writes_before,
        )

    def _issue(self, stream: Iterator[RaoRequest]) -> None:
        """Schedule the next RAO's completion at the end of its TX stage."""
        request = next(stream, None)
        if request is None:
            return
        reads = len(request.reads)
        self.sim.schedule_after(
            self._rao_ps + reads * self._load_ps, self._complete, (request, reads, stream)
        )

    def _complete(
        self, request: RaoRequest, reads: int, stream: Iterator[RaoRequest]
    ) -> None:
        """Book one RAO: its DMA transfers, the atomic and the response."""
        # Index-array loads are DMA round trips of their own; the RAW
        # hazard rule waited for the write's ack before this RAO ended.
        self.reads_issued += reads + 1
        self.writes_issued += 1
        dma = self.dma
        dma.transfers += reads + 2
        dma.bytes_moved += 64 * (reads + 2)
        current = self.values.read(request.target)
        new, _old = apply_atomic(request.op, current, request.operand)
        self.values.write(request.target, new)
        self.responses_sent += 1
        self._issue(stream)


from repro.system.registry import register_component  # noqa: E402


@register_component("nic.pcie_rao")
def _build_pcie_rao_nic(builder, system, spec) -> PcieRaoNic:
    """Builder factory: PCIe RAO NIC (needs no host complex)."""
    return PcieRaoNic(system.sim, system.config, HostValues(), name=spec.name)
