"""Load/store unit: the CXL.cache calibration microbenchmark (§VI-A.3).

The LSU generates host-memory requests with configurable access
patterns.  Every run is an :class:`LsuChain` in one of two modes:

* serial — the next request issues only after the previous completes,
  reproducing the median-latency methodology of Figs. 12/13;
* windowed — up to the profile's ``max_outstanding`` requests are in
  flight and one issues per device cycle, reproducing Fig. 15.

``run_latency``/``run_bandwidth`` drain one chain alone on the LSU's
simulator; the workload driver and the topology experiments run several
chains at once on one system.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Sequence

from repro.cxl.dcoh import Dcoh
from repro.devices.pmu import Pmu
from repro.mem.address import CACHELINE
from repro.sim.component import Component
from repro.sim.engine import Simulator
from repro.sim.stats import Histogram


@dataclass
class LsuReport:
    """Result of one LSU measurement run."""

    latencies: Histogram
    bandwidth_gbps: Optional[float]
    hmc_hits: int  # HMC hits during this run, not the array's lifetime total
    requests: int

    @property
    def median_ns(self) -> float:
        return self.latencies.median / 1_000

    @property
    def p25_ns(self) -> float:
        return self.latencies.p25 / 1_000

    @property
    def p75_ns(self) -> float:
        return self.latencies.p75 / 1_000


class LoadStoreUnit(Component):
    """LSU issuing 64 B loads/stores through the DCOH."""

    def __init__(self, sim: Simulator, dcoh: Dcoh, name: str = "lsu") -> None:
        super().__init__(sim, name)
        self.dcoh = dcoh
        self.profile = dcoh.profile
        self.pmu = Pmu(f"{name}.pmu")

    def run_latency(
        self,
        addrs: Sequence[int],
        exclusive: bool = False,
        extra_rt_ps: int = 0,
    ) -> LsuReport:
        """Serialized loads over ``addrs``; returns per-request latencies."""
        return self._drain(
            LsuChain(self, addrs, exclusive=exclusive, extra_rt_ps=extra_rt_ps)
        )

    def run_bandwidth(
        self,
        addrs: Sequence[int],
        exclusive: bool = False,
    ) -> LsuReport:
        """Pipelined loads under the profile's outstanding window;
        bandwidth is timed from the first request."""
        return self._drain(LsuChain(self, addrs, exclusive=exclusive, windowed=True))

    def _drain(self, chain: LsuChain) -> LsuReport:
        """Run ``chain`` alone to its end and report its loads, and the
        bandwidth of a windowed chain."""
        hits_before = self.dcoh.hmc.array.hits
        sim = self.sim
        chain.begin()
        sim.run()
        if chain.last_done_ps > sim.now:
            # The last completion stage fired no event: one event ends
            # the clock there, where the next run starts, since DRAM
            # refresh depends on absolute time.
            sim.schedule_after(chain.last_done_ps - sim.now, self.clock_mark)
            sim.run()
        self.pmu.reset()
        latencies = self.pmu.latencies
        latencies.extend(chain.latencies)
        return LsuReport(
            latencies=latencies,
            bandwidth_gbps=chain.bandwidth_gbps if chain.window else None,
            hmc_hits=self.dcoh.hmc.array.hits - hits_before,
            requests=len(chain.addrs),
        )

    # ------------------------------------------------------------------
    # Preconditioning helpers mirroring the paper's methodology
    # ------------------------------------------------------------------
    def warm_hmc(self, addrs: Sequence[int]) -> None:
        """Touch every line once so subsequent accesses hit the HMC."""
        for addr in addrs:
            self.dcoh.hmc.fill(addr)

    def sequential_lines(self, base: int, count: int) -> List[int]:
        return [base + i * CACHELINE for i in range(count)]


class LsuChain:
    """One stream of ops issued by one LSU, in serial or windowed mode.

    Serial (the default): each op waits its ``delays`` think time after
    the previous completion, then pays the LSU issue/complete stages
    around the DCOH access; its latency excludes the think time.
    Windowed: loads only, up to the profile's ``max_outstanding`` in
    flight.  A load issues one device cycle after the previous one, or
    at the completion that frees its window slot if that is later, and
    its latency is the DCOH access alone.

    Only the DCOH access fires events.  An op's think and issue time,
    or its wait for an issue slot, are the delay of its DCOH request
    (``Dcoh.read``'s ``delay_ps``), and the completion callback books
    the completion stage ahead and issues the next op from there.
    Several chains coexist on one simulator (and even one LSU), so
    nothing here drains the engine.  The op rows are plain per-column
    lists read by index.  The bound methods are the event callbacks (a
    windowed load's is bound to its issue time too, since several loads
    of one line can be in flight), so a chain refers to its LSU but
    nothing refers back: a finished run leaves no cycle.
    """

    __slots__ = (
        "lsu", "sim", "read", "write", "issue_ps", "complete_ps",
        "writes", "addrs", "sizes", "delays", "index", "window", "issue_ii_ps",
        "latencies", "bytes", "first_issue_ps", "last_done_ps", "issued_ps",
    )

    def __init__(
        self,
        lsu: LoadStoreUnit,
        addrs: Sequence[int],
        writes: Optional[List[bool]] = None,
        sizes: Optional[List[int]] = None,
        delays: Optional[List[int]] = None,
        exclusive: bool = False,
        extra_rt_ps: int = 0,
        windowed: bool = False,
    ) -> None:
        profile = lsu.profile
        dcoh = lsu.dcoh
        self.lsu = lsu
        self.sim = lsu.sim
        self.read = (
            partial(dcoh.read, exclusive=exclusive, extra_rt_ps=extra_rt_ps)
            if exclusive or extra_rt_ps
            else dcoh.read
        )
        self.write = dcoh.write
        self.issue_ps = profile.cycles_ps(profile.lsu_issue_cycles)
        self.complete_ps = profile.cycles_ps(profile.lsu_complete_cycles)
        count = len(addrs)
        self.addrs = addrs  # system addresses
        self.writes = [False] * count if writes is None else writes
        self.sizes = [CACHELINE] * count if sizes is None else sizes
        self.delays = [0] * count if delays is None else delays
        self.index = 0  # rows issued so far; serial, the op in flight is index - 1
        self.window = profile.max_outstanding if windowed else 0
        self.issue_ii_ps = profile.clock_period_ps  # one issue slot per cycle
        self.latencies: List[int] = []
        self.bytes = 0
        self.first_issue_ps = -1
        self.last_done_ps = 0
        self.issued_ps = 0  # the last issue

    @property
    def name(self) -> str:
        """The LSU's name, so profilers charge the chain's events to it."""
        return self.lsu.name

    @property
    def bandwidth_gbps(self) -> float:
        """Bytes completed per first-issue-to-last-completion span (0.0 if none)."""
        elapsed = self.last_done_ps - self.first_issue_ps
        return self.bytes / elapsed * 1_000 if elapsed > 0 else 0.0

    def begin(self) -> None:
        """Issue the first op, or a windowed chain's first window."""
        if self.window:
            for _ in range(self.window):
                self._issue_windowed()
        else:
            self.issue_next()

    # ------------------------------------------------------------------
    # Serial mode
    # ------------------------------------------------------------------
    def issue_next(self) -> None:
        self._issue_after(0)

    def _issue_after(self, wait_ps: int) -> None:
        """Issue the next op, its think time counted from ``wait_ps`` ahead.

        The think time is not checked here: ``OpBatch`` rejects negative
        delays.
        """
        index = self.index
        if index < len(self.addrs):
            self.index = index + 1
            wait_ps += self.delays[index]
            issued = self.sim.now + wait_ps
            self.issued_ps = issued
            if self.first_issue_ps < 0:
                self.first_issue_ps = issued
            access = self.write if self.writes[index] else self.read
            access(self.addrs[index], self.done, wait_ps + self.issue_ps)

    def done(self, _result) -> None:
        complete_ps = self.complete_ps
        finished = self.sim.now + complete_ps
        self.latencies.append(finished - self.issued_ps)
        self.bytes += self.sizes[self.index - 1]
        self.last_done_ps = finished
        self._issue_after(complete_ps)

    # ------------------------------------------------------------------
    # Windowed mode
    # ------------------------------------------------------------------
    def _issue_windowed(self) -> None:
        """Issue the next load one cycle after the last issue, or now if later."""
        index = self.index
        if index < len(self.addrs):
            self.index = index + 1
            now = self.sim.now
            if self.first_issue_ps < 0:
                issued = self.first_issue_ps = now
            else:
                issued = max(now, self.issued_ps + self.issue_ii_ps)
            self.issued_ps = issued
            self.read(self.addrs[index], partial(self.landed, issued), issued - now)

    def landed(self, issued_ps: int, _result) -> None:
        """A windowed load completed; its window slot issues the next load."""
        now = self.sim.now
        self.latencies.append(now - issued_ps)
        self.bytes += CACHELINE
        self.last_done_ps = now
        self._issue_windowed()


from repro.system.registry import register_component  # noqa: E402


@register_component("lsu")
def _build_lsu(builder, system, spec) -> LoadStoreUnit:
    """Builder factory: LSU driving a device's DCOH.

    Params: ``device`` — name of the device node to issue through;
    defaults to the linked neighbour that exposes a ``dcoh``.
    """
    device_name = spec.params.get("device")
    if device_name is not None:
        device = system.node(str(device_name))
        if not hasattr(device, "dcoh"):
            raise ValueError(f"lsu {spec.name!r}: node {device_name!r} has no dcoh")
    else:
        device = system.attached_node(spec.name, "dcoh")
    return LoadStoreUnit(system.sim, device.dcoh, name=spec.name)
