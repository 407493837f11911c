"""CXL-NIC RAO offload (Fig. 8b / Fig. 9).

The NIC is a CXL type-1/2 device: its RAO PEs execute read-modify-write
against the HMC through the DCOH.  Hot lines stay cached (CENTRAL,
STRIDE1), so most RAOs never cross the PHY; the PE locks the target
line for the RMW window to preserve atomicity, and hardware coherence
makes results visible to the host without explicit writebacks.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.cache.llc import SharedLLC
from repro.config.system import SystemConfig
from repro.cxl.dcoh import Dcoh
from repro.cxl.device import Type1Device
from repro.cxl.transactions import DcohResult
from repro.nic.base import HostValues, NicBase, RaoRunResult
from repro.rao.circustent import RaoRequest
from repro.rao.ops import apply_atomic
from repro.sim.engine import Simulator


class CxlRaoNic(NicBase):
    """RAO offloading on a CXL.cache-attached NIC."""

    def __init__(
        self,
        sim: Simulator,
        config: SystemConfig,
        llc: SharedLLC,
        values: Optional[HostValues] = None,
        pe_count: Optional[int] = None,
        name: str = "cxl-nic",
    ) -> None:
        super().__init__(sim, name, values)
        self.config = config
        self.device = Type1Device(sim, config.device, llc, name=name)
        self.dcoh: Dcoh = self.device.dcoh
        self.hmc = self.device.hmc
        self.pe_count = pe_count if pe_count is not None else config.rao.pe_count
        if self.pe_count <= 0:
            raise ValueError("need at least one RAO PE")
        self.hmc_hits = 0
        self.hmc_misses = 0
        self.dirty_evict_stalls = 0

    def warm(self, lines: Optional[int] = None, base: int = 0x7000_0000) -> None:
        """Bring the HMC to steady state: full of dirty lines.

        A long-running RAO service reaches this state quickly; without
        it, short measurement runs would never observe the dirty-evict
        cost that dominates cache-thrashing patterns.  The pass is
        untimed (callers measure from the start of :meth:`run`).
        """
        count = lines if lines is not None else self.hmc.array.num_sets * self.hmc.array.ways
        for i in range(count):
            addr = base + i * 64

            def owned(_result: DcohResult, a: int = addr) -> None:
                self.hmc.mark_modified(a)

            self.dcoh.read(addr, owned, exclusive=True)
        self.sim.run()
        self.hmc_hits = 0
        self.hmc_misses = 0
        self.hmc.array.reset_stats()

    def run(self, requests: List[RaoRequest]) -> RaoRunResult:
        """Process the stream with ``pe_count`` parallel PEs.

        Requests are dealt round-robin to PEs; each PE is serial, and
        line locking serializes racing PEs on the same address.
        """
        proc_ps = self.config.rao.request_proc_ps
        modify_ps = self.config.rao.modify_ps
        evict_ps = self.config.rao.dirty_evict_ps
        pe_ps = self.config.device.cycles_ps(self.config.rao.pe_access_cycles)
        start_ps = self.sim.now
        reads_before = self.dcoh.reads
        pending = list(requests)
        cursor = [0]

        def pe_loop() -> None:
            if cursor[0] >= len(pending):
                return
            request = pending[cursor[0]]
            cursor[0] += 1
            self.schedule(proc_ps // 2, do_reads, request, list(request.reads))

        def do_reads(request: RaoRequest, reads: List[int]) -> None:
            if reads:
                addr = reads.pop(0)

                def read_done(result: DcohResult) -> None:
                    self._count(result)
                    stall = pe_ps + (evict_ps if result.dirty_victim else 0)
                    self.schedule(stall, do_reads, request, reads)

                self.dcoh.read(addr, read_done, exclusive=False)
                return
            self.schedule(0, acquire, request)

        def acquire(request: RaoRequest) -> None:
            # Atomicity: another PE holding the line's lock serializes us.
            block = self.hmc.peek(request.target)
            if block is not None and block.locked:
                self.schedule(modify_ps + pe_ps, acquire, request)
                return

            def owned(result: DcohResult) -> None:
                self._count(result)
                # Lock the line against snoops for the RMW window.
                self.hmc.lock(request.target)
                stall = pe_ps + (evict_ps if result.dirty_victim else 0)
                if result.dirty_victim:
                    self.dirty_evict_stalls += 1
                self.schedule(stall + modify_ps, commit, request)

            self.dcoh.read(request.target, owned, exclusive=True)

        def commit(request: RaoRequest) -> None:
            current = self.values.read(request.target)
            new, _old = apply_atomic(request.op, current, request.operand)
            self.values.write(request.target, new)
            self.hmc.mark_modified(request.target)
            self.hmc.unlock(request.target)
            self.send_response(request)
            self.schedule(proc_ps - proc_ps // 2, pe_loop)

        for _ in range(min(self.pe_count, len(pending))):
            pe_loop()
        self.sim.run()
        return RaoRunResult(
            ops=len(pending),
            elapsed_ps=self.sim.now - start_ps,
            reads_issued=self.dcoh.reads - reads_before,
            writes_issued=0,
        )

    def _count(self, result: DcohResult) -> None:
        if result.hmc_hit:
            self.hmc_hits += 1
        else:
            self.hmc_misses += 1


from repro.system.registry import register_component  # noqa: E402


@register_component("nic.cxl_rao")
def _build_cxl_rao_nic(builder, system, spec) -> CxlRaoNic:
    """Builder factory: RAO NIC on the host LLC; params: ``pe_count``."""
    llc = system.require_llc(f"{spec.name} (nic.cxl_rao)")
    pe_count = spec.params.get("pe_count")
    return CxlRaoNic(
        system.sim, system.config, llc, HostValues(),
        pe_count=None if pe_count is None else int(pe_count),
        name=spec.name,
    )
