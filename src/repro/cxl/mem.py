"""CXL.mem: host load/store access to device-attached memory (HDM).

The memory interface routes LLC-miss addresses that fall in the
device's HDM window across the Flex Bus to the device memory
controller.  From software's point of view the HDM range is just
another (CPU-less) NUMA node.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.config.system import DeviceProfile, HostParams
from repro.interconnect.flexbus import FlexBus, FlexBusChannel
from repro.mem.address import AddressRange
from repro.mem.controller import MemoryController
from repro.sim.component import Component
from repro.sim.engine import Simulator


class CxlMemPath(Component):
    """H2D access path to one device's HDM region."""

    def __init__(
        self,
        sim: Simulator,
        host: HostParams,
        profile: DeviceProfile,
        flexbus: FlexBus,
        hdm: AddressRange,
        controller: MemoryController,
        name: str = "cxl.mem",
    ) -> None:
        super().__init__(sim, name)
        self.host = host
        self.profile = profile
        self.flexbus = flexbus
        self.hdm = hdm
        self.controller = controller
        self.reads = 0
        self.writes = 0

    def access_ps(self, addr: int, write: bool = False) -> int:
        """Round-trip latency of one H2D cacheline access."""
        if not self.hdm.contains(addr):
            raise ValueError(f"address {addr:#x} outside HDM window {self.hdm}")
        if write:
            self.writes += 1
        else:
            self.reads += 1
        self.flexbus.traffic[FlexBusChannel.MEM] += 1
        oneway = self.flexbus.oneway_ps
        return 2 * oneway + self.controller.access(addr, self.sim.now + oneway)

    def access(self, addr: int, on_done: Callable[[], None], write: bool = False) -> None:
        self.schedule(self.access_ps(addr, write=write), on_done)

    def construction_overhead(self) -> float:
        """Relative cost of building an object in HDM vs. host memory.

        The paper measures at most 8% extra for CXL.mem message
        construction versus host memory (§VI-E.2); derived here from
        the PHY round trip amortized over write-combined streaming.
        """
        host_line_ps = self.host.dram.closed_access_ps
        hdm_line_ps = host_line_ps + 2 * self.flexbus.oneway_ps
        # Write-combining buffers hide most of the PHY round trip; only
        # one line per 64-entry drain window exposes it.
        exposed = host_line_ps + (hdm_line_ps - host_line_ps) / 64
        return exposed / host_line_ps
