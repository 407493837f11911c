"""CXL device types.

Type-1: CXL.io + CXL.cache (e.g. a SmartNIC without device memory).
Type-2: CXL.io + CXL.cache, plus device memory (HDM) that the host
memory interface maps into its address space.

Each device assembles its protocol blocks (config space, HMC + DCOH,
HDM window) against a host attachment: the shared LLC and the memory
interface.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.cache.hmc import HostMemoryCache
from repro.cache.llc import SharedLLC
from repro.config.system import DeviceProfile, HostParams
from repro.cxl.dcoh import Dcoh
from repro.cxl.io import BarRegister, ConfigSpace
from repro.interconnect.flexbus import FlexBus
from repro.mem.address import AddressRange
from repro.mem.controller import MemoryController
from repro.mem.interface import MemoryInterface
from repro.sim.component import Component
from repro.sim.engine import Simulator
from repro.system.registry import register_component


class DeviceType(enum.IntEnum):
    TYPE1 = 1
    TYPE2 = 2


class CxlDevice(Component):
    """Base class: every CXL device has CXL.io (config space + BARs)."""

    DEVICE_ID = 0x0C00

    def __init__(
        self,
        sim: Simulator,
        profile: DeviceProfile,
        device_type: DeviceType,
        name: str,
        bar_size: int = 1 << 20,
    ) -> None:
        super().__init__(sim, name)
        self.profile = profile
        self.device_type = device_type
        self.config_space = ConfigSpace(
            vendor_id=ConfigSpace.VENDOR_CXL,
            device_id=self.DEVICE_ID + int(device_type),
            device_type=int(device_type),
            bars=[BarRegister(0, bar_size)],
        )
        self.flexbus = FlexBus(sim, profile, name=f"{name}.flexbus")

    @property
    def supports_cache(self) -> bool:
        return self.device_type in (DeviceType.TYPE1, DeviceType.TYPE2)


class Type1Device(CxlDevice):
    """CXL.io + CXL.cache accelerator (no device memory)."""

    def __init__(
        self,
        sim: Simulator,
        profile: DeviceProfile,
        llc: SharedLLC,
        name: str = "type1",
    ) -> None:
        super().__init__(sim, profile, DeviceType.TYPE1, name)
        self.hmc = HostMemoryCache(sim, profile, name=f"{name}.hmc")
        self.dcoh = Dcoh(sim, profile, self.hmc, self.flexbus, llc, name=f"{name}.dcoh")


class Type2Device(CxlDevice):
    """Full accelerator: CXL.io + CXL.cache + CXL.mem."""

    def __init__(
        self,
        sim: Simulator,
        profile: DeviceProfile,
        host: HostParams,
        llc: SharedLLC,
        memif: MemoryInterface,
        hdm: AddressRange,
        name: str = "type2",
        hdm_controller: Optional[MemoryController] = None,
    ) -> None:
        super().__init__(sim, profile, DeviceType.TYPE2, name)
        self.hmc = HostMemoryCache(sim, profile, name=f"{name}.hmc")
        self.dcoh = Dcoh(sim, profile, self.hmc, self.flexbus, llc, name=f"{name}.dcoh")
        self.hdm = hdm
        self.hdm_controller = hdm_controller or MemoryController(host.dram, channels=1)
        memif.attach(name, hdm, self.hdm_controller)


@register_component("cxl.type1")
def _build_type1(builder, system, spec) -> Type1Device:
    """Builder factory: CXL.cache accelerator on the host LLC."""
    llc = system.require_llc(f"{spec.name} (cxl.type1)")
    return Type1Device(system.sim, system.config.device, llc, name=spec.name)


@register_component("cxl.type2")
def _build_type2(builder, system, spec) -> Type2Device:
    """Builder factory: full accelerator; params: ``hdm_bytes``."""
    llc = system.require_llc(f"{spec.name} (cxl.type2)")
    hdm = builder.alloc_hdm(spec.name, int(spec.params.get("hdm_bytes", 0)))
    return Type2Device(
        system.sim, system.config.device, system.config.host, llc,
        system.memif, hdm, name=spec.name,
    )

