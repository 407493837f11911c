"""Heterogeneous memory management (HMM).

HMM merges device memory with host memory into one system pool,
maintains the unified page table, and exposes plain ``mmap``/``malloc``
upward (§III-C.2).  A first touch faults, and HMM places the page's
frame on the accessor's NUMA node.
"""

from __future__ import annotations

from typing import Dict

from repro.kernel.numa import NumaRegistry
from repro.kernel.page_table import (
    PAGE_SIZE,
    PageFault,
    PageTableEntry,
    UnifiedPageTable,
)


class Hmm:
    """The HMM core for one process address space."""

    def __init__(self, page_table: UnifiedPageTable, numa: NumaRegistry) -> None:
        self.page_table = page_table
        self.numa = numa
        self.faults_serviced = 0

    # ------------------------------------------------------------------
    # Fault path: first touch assigns a frame near the accessor
    # ------------------------------------------------------------------
    def handle_fault(self, vaddr: int, accessor_node: int) -> PageTableEntry:
        """Service a page fault with first-touch placement."""
        entry = self.page_table.entry(vaddr)
        if entry.present:
            return entry
        pfn = self.numa.alloc_local(accessor_node)
        node = self.numa.node_of_frame(pfn).node_id
        self.faults_serviced += 1
        return self.page_table.assign_frame(vaddr, pfn, node)

    def touch(self, vaddr: int, accessor_node: int, write: bool = False) -> int:
        """Translate, servicing the fault if needed; returns the PA."""
        try:
            return self.page_table.translate(vaddr, write=write)
        except PageFault:
            self.handle_fault(vaddr, accessor_node)
            return self.page_table.translate(vaddr, write=write)

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def release_page(self, vaddr: int) -> None:
        entry = self.page_table.lookup(vaddr)
        if entry is None:
            return
        if entry.present:
            self.numa.node(entry.node).free_frame(entry.pfn)
        self.page_table.unmap(vaddr)

    def resident_by_node(self) -> Dict[int, int]:
        """Bytes resident per NUMA node (for placement assertions)."""
        out: Dict[int, int] = {}
        for entry in self.page_table.entries():
            if entry.present:
                out[entry.node] = out.get(entry.node, 0) + PAGE_SIZE
        return out
