"""CXL Flex Bus: the shared PHY multiplexing .io/.cache/.mem traffic.

The Flex Bus carries the three sub-protocols over one physical link.
Here it provides the calibrated one-way PHY traversal used by the
CXL.cache/mem paths and arbitration counters per channel.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, Optional

from repro.config.system import DeviceProfile
from repro.sim.component import Component
from repro.sim.engine import Simulator


class FlexBusChannel(enum.Enum):
    IO = "cxl.io"
    CACHE = "cxl.cache"
    MEM = "cxl.mem"

    # Members are singletons, so identity hashing is exact, and it keeps
    # ``FlexBus.traffic[channel] += 1`` out of the Python-level
    # ``Enum.__hash__``.
    __hash__ = object.__hash__


class FlexBus(Component):
    """One CXL link's PHY with per-channel accounting."""

    def __init__(
        self,
        sim: Simulator,
        profile: DeviceProfile,
        name: str = "flexbus",
    ) -> None:
        super().__init__(sim, name)
        self.profile = profile
        # A plain attribute: the latency of a crossing that starts now,
        # read once per crossing.  A fault plan that degrades the link
        # shadows it with a time-varying property.
        self.oneway_ps = profile.phy_oneway_ps
        self.traffic: Dict[FlexBusChannel, int] = {c: 0 for c in FlexBusChannel}

    def oneway_at(self, t_ps: int) -> int:
        """One-way latency of a crossing that starts at ``t_ps``.

        For a caller that schedules the crossing before it starts.  A
        fault plan that degrades the link overrides it.
        """
        return self.oneway_ps

    def traverse(
        self,
        channel: FlexBusChannel,
        on_arrive: Optional[Callable[[], None]] = None,
    ) -> int:
        """One-way traversal; returns the arrival time (ps)."""
        self.traffic[channel] += 1
        arrive = self.sim.now + self.oneway_ps
        if on_arrive is not None:
            self.schedule(arrive - self.sim.now, on_arrive)
        return arrive

    def round_trip_ps(self) -> int:
        return 2 * self.oneway_ps
