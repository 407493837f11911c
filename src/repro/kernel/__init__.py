"""OS-level models: unified page table, HMM, NUMA, ATS/IOMMU, drivers."""

from repro.kernel.page_table import PAGE_SIZE, PageTableEntry, UnifiedPageTable
from repro.kernel.numa import NodeKind, NumaNode, NumaRegistry, numa_init
from repro.kernel.ats import Atc, Iommu
from repro.kernel.hmm import Hmm, MigrationError
from repro.kernel.driver import XpuDriver
from repro.kernel.fabric import FabricManager, ResourceError

__all__ = [
    "PAGE_SIZE",
    "PageTableEntry",
    "UnifiedPageTable",
    "NodeKind",
    "NumaNode",
    "NumaRegistry",
    "numa_init",
    "Atc",
    "Iommu",
    "Hmm",
    "MigrationError",
    "XpuDriver",
    "FabricManager",
    "ResourceError",
]
