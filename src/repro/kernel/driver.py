"""The XPU device driver.

At boot the driver binds one enumerated CXL device into Cohet: it
creates the ``/dev/cxl_acc`` surface that user space opens, and mmaps
the device's BAR through CXL.io (§IV-B.1).
"""

from __future__ import annotations

from typing import Optional

from repro.cxl.device import CxlDevice
from repro.cxl.io import CxlIoPort, EnumeratedDevice


class XpuDriver:
    """Kernel driver binding one CXL device into Cohet."""

    def __init__(
        self,
        device: CxlDevice,
        enumerated: EnumeratedDevice,
        memory_node: Optional[int] = None,
    ) -> None:
        self.device = device
        self.enumerated = enumerated
        self.memory_node = memory_node
        self.io_port = CxlIoPort(enumerated)
        self._char_dev_open = False

    # ------------------------------------------------------------------
    # User-space surface
    # ------------------------------------------------------------------
    def open(self) -> "XpuDriver":
        """open(/dev/cxl_acc)"""
        self._char_dev_open = True
        return self

    def mmap_bar(self, index: int = 0):
        if not self._char_dev_open:
            raise RuntimeError("device node not open")
        return self.io_port.mmap(index)
