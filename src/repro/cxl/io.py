"""CXL.io: configuration space, BAR sizing, enumeration, MMIO.

CXL.io is PCIe-equivalent: at boot the BIOS walks config space, sizes
each BAR by the write-all-ones protocol, assigns physical windows, and
writes the base addresses back.  A kernel driver later mmaps the BAR
window so the CPU can ring doorbells via MMIO (§IV-B.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.mem.address import AddressRange


@dataclass
class BarRegister:
    """One base address register."""

    index: int
    size: int
    base: Optional[int] = None

    def __post_init__(self) -> None:
        if self.size <= 0 or self.size & (self.size - 1):
            raise ValueError(f"BAR size must be a power of two, got {self.size}")

    @property
    def size_mask(self) -> int:
        """Value read back after writing all-ones (lower bits clamped)."""
        return (~(self.size - 1)) & 0xFFFF_FFFF_FFFF_FFFF

    def window(self) -> AddressRange:
        if self.base is None:
            raise RuntimeError(f"BAR{self.index} not mapped")
        return AddressRange(self.base, self.base + self.size, f"BAR{self.index}")


class ConfigSpace:
    """A device's PCI/CXL configuration space."""

    VENDOR_CXL = 0x1E98  # CXL consortium vendor id used for our models

    def __init__(
        self,
        vendor_id: int,
        device_id: int,
        device_type: int,
        bars: List[BarRegister],
    ) -> None:
        self.vendor_id = vendor_id
        self.device_id = device_id
        self.device_type = device_type  # 1, 2 or 3
        self.bars = {bar.index: bar for bar in bars}
        self._sizing: Dict[int, bool] = {}

    def read(self, register: str, index: int = 0) -> int:
        if register == "vendor_id":
            return self.vendor_id
        if register == "device_id":
            return self.device_id
        if register == "device_type":
            return self.device_type
        if register == "bar":
            bar = self.bars[index]
            if self._sizing.get(index):
                self._sizing[index] = False
                return bar.size_mask
            return bar.base if bar.base is not None else 0
        raise KeyError(f"unknown config register {register!r}")

    def write(self, register: str, value: int, index: int = 0) -> None:
        if register == "bar":
            bar = self.bars[index]
            if value == 0xFFFF_FFFF_FFFF_FFFF:
                self._sizing[index] = True
            else:
                if value % bar.size:
                    raise ValueError(
                        f"BAR{index} base {value:#x} not aligned to size {bar.size:#x}"
                    )
                bar.base = value
            return
        raise KeyError(f"unknown or read-only config register {register!r}")


@dataclass
class EnumeratedDevice:
    """Result of BIOS enumeration for one device."""

    bus: int
    slot: int
    config: ConfigSpace
    bar_windows: Dict[int, AddressRange] = field(default_factory=dict)


def enumerate_devices(
    devices: List[Tuple[int, int, ConfigSpace]],
    mmio_base: int = 0xC000_0000_0000,
) -> List[EnumeratedDevice]:
    """BIOS walk: size every BAR and assign MMIO windows.

    ``devices`` is a list of ``(bus, slot, config_space)``.  Windows are
    packed upward from ``mmio_base`` with natural alignment.
    """
    cursor = mmio_base
    enumerated = []
    for bus, slot, config in devices:
        if config.read("vendor_id") == 0xFFFF:
            continue  # empty slot
        entry = EnumeratedDevice(bus, slot, config)
        for index in sorted(config.bars):
            # Write all-ones, read back the size mask, decode the size.
            config.write("bar", 0xFFFF_FFFF_FFFF_FFFF, index=index)
            mask = config.read("bar", index=index)
            size = (~mask & 0xFFFF_FFFF_FFFF_FFFF) + 1
            base = (cursor + size - 1) // size * size  # natural alignment
            config.write("bar", base, index=index)
            cursor = base + size
            entry.bar_windows[index] = config.bars[index].window()
        enumerated.append(entry)
    return enumerated


class CxlIoPort:
    """The /dev/cxl_acc surface: BAR windows mmapped over CXL.io."""

    def __init__(self, enumerated: EnumeratedDevice) -> None:
        self.enumerated = enumerated
        self._mapped: Dict[int, AddressRange] = {}

    def mmap(self, bar_index: int) -> AddressRange:
        window = self.enumerated.bar_windows[bar_index]
        self._mapped[bar_index] = window
        return window

    def is_mapped(self, addr: int) -> bool:
        return any(window.contains(addr) for window in self._mapped.values())
