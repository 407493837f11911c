"""OS-level models: unified page table, HMM, NUMA, drivers, fabric manager."""

from repro.kernel.page_table import PAGE_SIZE, PageTableEntry, UnifiedPageTable
from repro.kernel.numa import NodeKind, NumaNode, NumaRegistry, numa_init
from repro.kernel.hmm import Hmm
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
    "Hmm",
    "XpuDriver",
    "FabricManager",
    "ResourceError",
]
