"""CXL fabric manager: the distributed resource scheduler in the switch.

Hosts request fabric-attached memory and XPUs from the pool, and the
manager binds each to the host that asked (§III-C.1).  This models the
disaggregation story: compute and memory scale independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.mem.address import AddressRange


class ResourceError(RuntimeError):
    pass


@dataclass
class XpuResource:
    name: str
    profile_name: str
    bound_to: Optional[str] = None


@dataclass
class MemoryResource:
    name: str
    region: AddressRange
    bound_to: Optional[str] = None


class FabricManager:
    """Resource scheduler living in a CXL switch."""

    def __init__(self, name: str = "fabric0") -> None:
        self.name = name
        self._xpus: Dict[str, XpuResource] = {}
        self._memory: Dict[str, MemoryResource] = {}
        self.allocations = 0

    # ------------------------------------------------------------------
    # Inventory
    # ------------------------------------------------------------------
    def add_xpu(self, name: str, profile_name: str) -> None:
        if name in self._xpus:
            raise ValueError(f"XPU {name!r} already in fabric")
        self._xpus[name] = XpuResource(name, profile_name)

    def add_memory(self, name: str, region: AddressRange) -> None:
        if name in self._memory:
            raise ValueError(f"memory {name!r} already in fabric")
        self._memory[name] = MemoryResource(name, region)

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def allocate_xpu(self, host: str, profile_name: Optional[str] = None) -> XpuResource:
        for xpu in self._xpus.values():
            if xpu.bound_to is None and (
                profile_name is None or xpu.profile_name == profile_name
            ):
                xpu.bound_to = host
                self.allocations += 1
                return xpu
        raise ResourceError(f"no free XPU (profile={profile_name!r}) in {self.name}")

    def allocate_memory(self, host: str, min_bytes: int) -> MemoryResource:
        for mem in self._memory.values():
            if mem.bound_to is None and mem.region.size >= min_bytes:
                mem.bound_to = host
                self.allocations += 1
                return mem
        raise ResourceError(f"no free memory >= {min_bytes} bytes in {self.name}")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def holdings(self, host: str) -> List[str]:
        names = [x.name for x in self._xpus.values() if x.bound_to == host]
        names += [m.name for m in self._memory.values() if m.bound_to == host]
        return sorted(names)

    @property
    def free_xpus(self) -> int:
        return sum(1 for x in self._xpus.values() if x.bound_to is None)

    @property
    def free_memory_bytes(self) -> int:
        return sum(m.region.size for m in self._memory.values() if m.bound_to is None)
