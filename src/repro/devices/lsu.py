"""Load/store unit: the CXL.cache calibration microbenchmark (§VI-A.3).

The LSU generates host-memory requests with configurable access
patterns.  Two modes:

* latency mode — requests are serialized (the next issues only after
  the previous completes), reproducing the median-latency methodology
  of Figs. 12/13;
* bandwidth mode — requests are pipelined under an outstanding-window
  credit pool, reproducing Fig. 15.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.cxl.dcoh import Dcoh
from repro.cxl.transactions import DcohResult
from repro.devices.pmu import Pmu
from repro.mem.address import CACHELINE
from repro.sim.component import Component
from repro.sim.engine import Simulator
from repro.sim.queueing import CreditPool
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

    # ------------------------------------------------------------------
    # Latency mode
    # ------------------------------------------------------------------
    def run_latency(
        self,
        addrs: Sequence[int],
        exclusive: bool = False,
        extra_rt_ps: int = 0,
    ) -> LsuReport:
        """Serialized loads over ``addrs``; returns per-request latencies."""
        self.pmu.reset()
        hits_before = self.dcoh.hmc.array.hits
        issue_ps = self.profile.cycles_ps(self.profile.lsu_issue_cycles)
        complete_ps = self.profile.cycles_ps(self.profile.lsu_complete_cycles)
        pending = list(addrs)
        index = 0

        def issue_next() -> None:
            nonlocal index
            if index >= len(pending):
                return
            req_id = index
            addr = pending[index]
            index += 1
            self.pmu.issued(req_id, self.sim.now)

            def done(_result: DcohResult) -> None:
                # The completion stays an event: it leaves the clock at
                # the last completion, where the next run starts, and
                # DRAM refresh depends on absolute time.
                self.schedule(complete_ps, finish, req_id)

            self.dcoh.read(addr, done, issue_ps, exclusive, extra_rt_ps)

        def finish(req_id: int) -> None:
            self.pmu.completed(req_id, self.sim.now)
            issue_next()

        issue_next()
        self.sim.run()
        return LsuReport(
            latencies=self.pmu.latencies,
            bandwidth_gbps=None,
            hmc_hits=self.dcoh.hmc.array.hits - hits_before,
            requests=len(pending),
        )

    # ------------------------------------------------------------------
    # Bandwidth mode
    # ------------------------------------------------------------------
    def run_bandwidth(
        self,
        addrs: Sequence[int],
        exclusive: bool = False,
    ) -> LsuReport:
        """Pipelined loads under the profile's outstanding window;
        bandwidth is timed from the first request."""
        self.pmu.reset()
        hits_before = self.dcoh.hmc.array.hits
        credits = CreditPool(self.profile.max_outstanding, f"{self.name}.mshr")
        issue_ii = self.profile.clock_period_ps  # one issue slot per cycle
        pending = list(addrs)
        index = 0

        def try_issue() -> None:
            if index >= len(pending):
                return
            if credits.acquire(on_grant=issue_one):
                issue_one()

        def issue_one() -> None:
            # Runs while holding one credit (granted now or handed over
            # by a completing request's release()).
            nonlocal index
            if index >= len(pending):
                credits.release()
                return
            req_id = index
            addr = pending[index]
            index += 1
            self.pmu.issued(req_id, self.sim.now)

            def done(_result: DcohResult, rid: int = req_id) -> None:
                self.pmu.completed(rid, self.sim.now)
                credits.release()

            self.dcoh.read(addr, done, exclusive=exclusive)
            # Next issue slot on the following device cycle.
            self.schedule(issue_ii, try_issue)

        try_issue()
        self.sim.run()
        bandwidth = self.pmu.bandwidth_gbps(CACHELINE, from_issue=True)
        return LsuReport(
            latencies=self.pmu.latencies,
            bandwidth_gbps=bandwidth,
            hmc_hits=self.dcoh.hmc.array.hits - hits_before,
            requests=len(pending),
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
