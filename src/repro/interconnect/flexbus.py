"""CXL Flex Bus: the shared PHY multiplexing .io/.cache/.mem traffic.

The Flex Bus carries the three sub-protocols over one physical link.
Here it provides the calibrated one-way PHY latency the CXL.cache path
pays per crossing, and counts the CXL.cache requests that cross it.
"""

from __future__ import annotations

from repro.config.system import DeviceProfile
from repro.sim.component import Component
from repro.sim.engine import Simulator


class FlexBus(Component):
    """One CXL link's PHY with a CXL.cache request counter."""

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
        #: CXL.cache requests the DCOH sent to the host over this link.
        self.cache_requests = 0

    def oneway_at(self, t_ps: int) -> int:
        """One-way latency of a crossing that starts at ``t_ps``.

        For a caller that schedules the crossing before it starts.  A
        fault plan that degrades the link overrides it.
        """
        return self.oneway_ps
