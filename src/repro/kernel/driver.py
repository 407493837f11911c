"""The XPU device driver.

At boot the driver probes the device over CXL.io (config space), learns
its memory size, registers an instance with HMM (including the ATS
callbacks), and creates the ``/dev/cxl_acc`` surface that user space
opens and mmaps (§IV-B.1).
"""

from __future__ import annotations

from typing import Optional, Set

from repro.cxl.device import CxlDevice, DeviceType
from repro.cxl.io import CxlIoPort, EnumeratedDevice
from repro.kernel.ats import Atc, Iommu
from repro.kernel.hmm import Hmm


class XpuDriver:
    """Kernel driver binding one CXL device into Cohet."""

    def __init__(
        self,
        device: CxlDevice,
        enumerated: EnumeratedDevice,
        hmm: Hmm,
        memory_node: Optional[int] = None,
        atc_entries: int = 64,
    ) -> None:
        self.device = device
        self.enumerated = enumerated
        self.hmm = hmm
        self.memory_node = memory_node
        self.io_port = CxlIoPort(enumerated)
        self.blocked_vpns: Set[int] = set()
        self.atc: Optional[Atc] = None
        if device.supports_cache:
            self.atc = Atc(f"{device.name}.atc", hmm.iommu, entries=atc_entries)
        # The set's own methods are the HMM callbacks, so the HMM holds no
        # reference back to the driver.
        hmm.register_device(
            device.name,
            memory_node,
            block_access=self.blocked_vpns.add,
            resume_access=self.blocked_vpns.discard,
        )
        self._char_dev_open = False

    # ------------------------------------------------------------------
    # Probe / user-space surface
    # ------------------------------------------------------------------
    def probe(self) -> dict:
        """Read device identity and capabilities over CXL.io."""
        cfg = self.device.config_space
        return {
            "vendor_id": cfg.read("vendor_id"),
            "device_id": cfg.read("device_id"),
            "device_type": DeviceType(cfg.read("device_type")),
            "supports_cache": self.device.supports_cache,
            "supports_mem": self.device.supports_mem,
        }

    def open(self) -> "XpuDriver":
        """open(/dev/cxl_acc)"""
        self._char_dev_open = True
        return self

    def mmap_bar(self, index: int = 0):
        if not self._char_dev_open:
            raise RuntimeError("device node not open")
        return self.io_port.mmap(index)

    def release(self) -> None:
        self._char_dev_open = False

    def device_may_access(self, vpn: int) -> bool:
        return vpn not in self.blocked_vpns
