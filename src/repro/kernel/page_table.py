"""The per-process unified page table shared by CPUs and XPUs.

Cohet's central OS structure (§III-C): one page table serves every
compute unit.  Entries may exist without a physical frame (allocated by
``malloc`` before first touch), which is what enables overcommit; the
fault path assigns frames on first access.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional

PAGE_SIZE = 4096


def vpn_of(vaddr: int) -> int:
    return vaddr // PAGE_SIZE


def page_offset(vaddr: int) -> int:
    return vaddr % PAGE_SIZE


@dataclass
class PageTableEntry:
    """One PTE.  ``pfn is None`` means allocated-but-untouched."""

    vpn: int
    pfn: Optional[int] = None
    node: Optional[int] = None
    writable: bool = True
    dirty: bool = False
    accessed: bool = False

    @property
    def present(self) -> bool:
        return self.pfn is not None

    def physical(self, vaddr: int) -> int:
        if self.pfn is None:
            raise PageFault(vaddr)
        return self.pfn * PAGE_SIZE + page_offset(vaddr)


class PageFault(Exception):
    """Raised on access to a page without a frame; HMM services it."""

    def __init__(self, vaddr: int) -> None:
        super().__init__(f"page fault at {vaddr:#x}")
        self.vaddr = vaddr


class UnifiedPageTable:
    """Single page table for one process, shared by CPU and XPU threads."""

    def __init__(self, pid: int = 0) -> None:
        self.pid = pid
        self._entries: Dict[int, PageTableEntry] = {}
        self.faults = 0

    def map(self, vaddr: int, writable: bool = True) -> PageTableEntry:
        """Create a frame-less entry (malloc semantics)."""
        vpn = vpn_of(vaddr)
        if vpn in self._entries:
            raise ValueError(f"page {vpn:#x} already mapped")
        entry = PageTableEntry(vpn=vpn, writable=writable)
        self._entries[vpn] = entry
        return entry

    def entry(self, vaddr: int) -> PageTableEntry:
        vpn = vpn_of(vaddr)
        try:
            return self._entries[vpn]
        except KeyError:
            raise PageFault(vaddr) from None

    def lookup(self, vaddr: int) -> Optional[PageTableEntry]:
        return self._entries.get(vpn_of(vaddr))

    def translate(self, vaddr: int, write: bool = False) -> int:
        """Resolve a virtual address; raises :class:`PageFault` when the
        page is absent or frame-less."""
        entry = self.entry(vaddr)
        if not entry.present:
            self.faults += 1
            raise PageFault(vaddr)
        if write and not entry.writable:
            raise PermissionError(f"write to read-only page {vaddr:#x}")
        entry.accessed = True
        if write:
            entry.dirty = True
        return entry.physical(vaddr)

    def assign_frame(self, vaddr: int, pfn: int, node: int) -> PageTableEntry:
        entry = self.entry(vaddr)
        if entry.present:
            raise ValueError(f"page {entry.vpn:#x} already has frame {entry.pfn}")
        entry.pfn = pfn
        entry.node = node
        return entry

    def unmap(self, vaddr: int) -> PageTableEntry:
        vpn = vpn_of(vaddr)
        entry = self._entries.pop(vpn, None)
        if entry is None:
            raise PageFault(vaddr)
        return entry

    def entries(self) -> Iterator[PageTableEntry]:
        return iter(self._entries.values())

    def resident_bytes(self) -> int:
        return sum(PAGE_SIZE for e in self._entries.values() if e.present)

    def mapped_bytes(self) -> int:
        return len(self._entries) * PAGE_SIZE
