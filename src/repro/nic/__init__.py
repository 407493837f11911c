"""NIC designs: PCIe-NIC and CXL-NIC offloading engines."""

from repro.nic.base import HostValues, MemoryTranslationTable, NicBase, RaoRunResult
from repro.nic.pcie_nic import PcieRaoNic
from repro.nic.cxl_nic import CxlRaoNic
from repro.nic.prefetcher import MultiStridePrefetcher

__all__ = [
    "HostValues",
    "MemoryTranslationTable",
    "NicBase",
    "RaoRunResult",
    "PcieRaoNic",
    "CxlRaoNic",
    "MultiStridePrefetcher",
]
