"""CXL-NIC RAO offload (Fig. 8b / Fig. 9).

The NIC is a CXL type-1/2 device: its RAO PEs execute read-modify-write
against the HMC through the DCOH.  Hot lines stay cached (CENTRAL,
STRIDE1), so most RAOs never cross the PHY; the PE locks the target
line for the RMW window to preserve atomicity, and hardware coherence
makes results visible to the host without explicit writebacks.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

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
        start_ps = self.sim.now
        reads_before = self.dcoh.reads
        pending = list(requests)
        stream = iter(pending)
        for _ in range(min(self.pe_count, len(pending))):
            _RaoPe(self, stream).claim(0)
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


class _RaoPe:
    """One RAO PE working through the run's shared request stream.

    Only protocol steps fire events.  A request's RX stage is the delay
    of its first DCOH read (``Dcoh.read``'s ``delay_ps``), or of its
    lock acquire when it reads no index; ``read_done`` issues the next
    index read or the acquire after the PE's stall; ``acquire`` checks
    the line lock at its own time; ``commit`` sends the response and
    claims the next request, whose RX stage follows the response's TX
    stage.  When the stream runs out, one event ends the last TX stage.
    The bound methods are the event callbacks, so a PE refers to its
    NIC but nothing refers back: a finished run leaves no cycle.
    """

    __slots__ = (
        "nic", "sim", "dcoh_read", "hmc", "stream", "rx_ps", "tx_ps",
        "modify_ps", "evict_ps", "pe_ps", "request", "next_read",
    )

    def __init__(self, nic: CxlRaoNic, stream: Iterator[RaoRequest]) -> None:
        config = nic.config
        rao = config.rao
        self.nic = nic
        self.sim = nic.sim
        self.dcoh_read = nic.dcoh.read
        self.hmc = nic.hmc
        self.stream = stream
        self.rx_ps = rao.request_proc_ps // 2
        self.tx_ps = rao.request_proc_ps - self.rx_ps
        self.modify_ps = rao.modify_ps
        self.evict_ps = rao.dirty_evict_ps
        self.pe_ps = config.device.cycles_ps(rao.pe_access_cycles)
        self.request: Optional[RaoRequest] = None
        self.next_read = 0

    @property
    def name(self) -> str:
        """The NIC's name, so profilers charge the PE's events to it."""
        return self.nic.name

    def claim(self, after_ps: int) -> None:
        """Take the next request; its RX stage starts ``after_ps`` from now.

        With the stream run out, one event still ends the TX stage that
        runs until then, so the run's elapsed time includes it.
        """
        request = next(self.stream, None)
        if request is None:
            self.sim.schedule_after(after_ps, self.tx_done)
            return
        self.request = request
        self.next_read = 0
        self._step(after_ps + self.rx_ps)

    def _step(self, delay_ps: int) -> None:
        """Issue the next index read, else the acquire, ``delay_ps`` from now."""
        reads = self.request.reads
        index = self.next_read
        if index < len(reads):
            self.next_read = index + 1
            self.dcoh_read(reads[index], self.read_done, delay_ps)
        else:
            self.sim.schedule_after(delay_ps, self.acquire)

    def read_done(self, result: DcohResult) -> None:
        self.nic._count(result)
        self._step(self.pe_ps + (self.evict_ps if result.dirty_victim else 0))

    def acquire(self) -> None:
        # Atomicity: another PE holding the line's lock serializes us.
        target = self.request.target
        block = self.hmc.peek(target)
        if block is not None and block.locked:
            self.sim.schedule_after(self.modify_ps + self.pe_ps, self.acquire)
            return
        self.dcoh_read(target, self.owned, exclusive=True)

    def owned(self, result: DcohResult) -> None:
        nic = self.nic
        nic._count(result)
        # Lock the line against snoops for the RMW window.
        self.hmc.lock(self.request.target)
        stall = self.pe_ps
        if result.dirty_victim:
            stall += self.evict_ps
            nic.dirty_evict_stalls += 1
        self.sim.schedule_after(stall + self.modify_ps, self.commit)

    def commit(self) -> None:
        request = self.request
        nic = self.nic
        current = nic.values.read(request.target)
        new, _old = apply_atomic(request.op, current, request.operand)
        nic.values.write(request.target, new)
        self.hmc.mark_modified(request.target)
        self.hmc.unlock(request.target)
        nic.send_response(request)
        self.claim(self.tx_ps)

    def tx_done(self) -> None:
        """End of the PE's last TX stage."""


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
