"""Memory interface: routes LLC/DMA requests to host or device memory.

This is the module labelled "Memory Interface" in Fig. 6: it inspects
the physical address, forwards the request to the host controller or
(for CXL.mem) to the device-attached memory, and accounts the routing
hop each way.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.mem.address import AddressRange
from repro.mem.controller import MemoryController


class MemoryInterface:
    """Address-routed front door to every memory controller in the pool."""

    def __init__(self, oneway_ps: int) -> None:
        self.oneway_ps = oneway_ps
        self._targets: Dict[str, Tuple[AddressRange, MemoryController]] = {}
        self.routed = 0

    def attach(self, name: str, region: AddressRange, controller: MemoryController) -> None:
        """Register a memory target; ranges must not overlap."""
        for existing_name, (existing, _ctrl) in self._targets.items():
            if existing.overlaps(region):
                raise ValueError(
                    f"range {region} overlaps {existing} ({existing_name!r})"
                )
        self._targets[name] = (region, controller)

    def target_of(self, addr: int) -> Optional[str]:
        for name, (region, _ctrl) in self._targets.items():
            if region.contains(addr):
                return name
        return None

    def controller_of(self, addr: int) -> MemoryController:
        name = self.target_of(addr)
        if name is None:
            raise LookupError(f"address {addr:#x} maps to no memory target")
        return self._targets[name][1]

    def region(self, name: str) -> AddressRange:
        return self._targets[name][0]

    def access_ps(self, addr: int, now_ps: int) -> int:
        """Round-trip latency for one line access through the interface."""
        self.routed += 1
        for region, controller in self._targets.values():
            if region.start <= addr < region.end:
                break
        else:
            raise LookupError(f"address {addr:#x} maps to no memory target")
        oneway = self.oneway_ps
        return oneway + controller.access(addr, now_ps + oneway) + oneway

    @property
    def targets(self) -> Dict[str, AddressRange]:
        return {name: region for name, (region, _ctrl) in self._targets.items()}
