"""DMA read/write engines for the PCIe device models.

A one-shot transfer pays the descriptor setup (engine processing plus a
fixed PHY round trip) and then the wire time of its TLP-segmented
payload.  Queued descriptor streams pipeline: the engine accepts a new
descriptor every ``desc_ii`` and overlaps its wire time with the next
descriptor's processing, so throughput is payload/(desc_ii + wire).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.config.system import DmaParams
from repro.devices.pmu import Pmu
from repro.sim.component import Component
from repro.sim.engine import Simulator
from repro.sim.stats import Histogram


@dataclass
class DmaReport:
    latencies: Histogram
    bandwidth_gbps: Optional[float]
    transfers: int
    bytes_moved: int

    @property
    def median_ns(self) -> float:
        return self.latencies.median / 1_000

    @property
    def median_us(self) -> float:
        return self.latencies.median / 1_000_000


class DmaEngine(Component):
    """One direction's DMA engine (read or write look identical on the
    PHY, §VI-B.2 notes read/write symmetry)."""

    def __init__(self, sim: Simulator, params: DmaParams, name: str = "dma") -> None:
        super().__init__(sim, name)
        self.params = params
        self.pmu = Pmu(f"{name}.pmu")
        self._engine_free_ps = 0
        self.transfers = 0
        self.bytes_moved = 0

    # ------------------------------------------------------------------
    # One-shot transfer (latency path, Fig. 14)
    # ------------------------------------------------------------------
    def transfer(self, size: int) -> int:
        """Start a one-shot DMA; returns the completion time (ps)."""
        if size <= 0:
            raise ValueError("transfer size must be positive")
        self.transfers += 1
        self.bytes_moved += size
        start = max(self.sim.now, self._engine_free_ps)
        done = start + self.params.setup_ps + self.params.wire_ps(size)
        # The engine frees up once it has handed the payload to the link.
        self._engine_free_ps = start + self.params.setup_ps
        return done

    def measure_latency(self, size: int, repeats: int = 100) -> DmaReport:
        """Serialized one-shot transfers; median reproduces Fig. 14."""
        self.pmu.reset()
        self._timed_transfers(size, repeats)
        self.sim.run()
        return DmaReport(
            latencies=self.pmu.latencies,
            bandwidth_gbps=None,
            transfers=repeats,
            bytes_moved=repeats * size,
        )

    def _timed_transfers(self, size: int, left: int) -> None:
        """Start the next of ``left`` serialized transfers and record it.

        Its completion time is known at the start, and its completion
        event starts the one after; the bound method is the callback, so
        a finished run leaves no cycle.
        """
        if left:
            now = self.sim.now
            done = self.transfer(size)
            self.pmu.issued(left, now)
            self.pmu.completed(left, done)
            self.sim.schedule_after(done - now, self._timed_transfers, (size, left - 1))

    # ------------------------------------------------------------------
    # Pipelined descriptor stream (bandwidth path, Fig. 16)
    # ------------------------------------------------------------------
    def measure_bandwidth(self, size: int, descriptors: int = 2048, warmup: int = 64) -> DmaReport:
        """Queue ``descriptors`` back-to-back transfers of ``size`` bytes."""
        self.pmu.reset()
        warmup = min(warmup, descriptors // 4)
        base = self.sim.now
        per_descriptor = self.params.pipelined_ps(size)
        completion = base + self.params.setup_ps  # first completion after setup
        pmu = self.pmu
        for req_id in range(descriptors):
            pmu.issued(req_id, base)
            completion += per_descriptor
            pmu.completed(req_id, completion)
        # Every completion time is known up front: one event ends the
        # clock at the last, where the next run starts.
        self.sim.schedule_after(completion - base, self.clock_mark)
        self.sim.run()
        bandwidth = self.pmu.bandwidth_gbps(size, warmup=warmup)
        self.transfers += descriptors
        self.bytes_moved += descriptors * size
        return DmaReport(
            latencies=self.pmu.latencies,
            bandwidth_gbps=bandwidth,
            transfers=descriptors,
            bytes_moved=descriptors * size,
        )

    # ------------------------------------------------------------------
    # RAO building block: strictly ordered 64 B read/write pairs
    # ------------------------------------------------------------------
    def rmw_pair_ps(self) -> int:
        """Cost of one read + one write at cacheline size, serialized.

        PCIe's relaxed ordering forces each RAO to wait for the previous
        write's acknowledgement (§V-A.1), so the pair cannot overlap.
        """
        return 2 * self.params.transfer_ps(64)


from repro.system.registry import register_component  # noqa: E402


@register_component("dma")
def _build_dma(builder, system, spec) -> DmaEngine:
    """Builder factory: descriptor-driven PCIe DMA engine."""
    return DmaEngine(system.sim, system.config.dma, name=spec.name)
