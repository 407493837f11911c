"""Address translation service: device ATC + host IOMMU.

When an XPU thread touches a virtual address it consults its
device-side address translation cache (ATC, the device TLB).  A miss
forwards the request to the host IOMMU, which walks the unified page
table and returns the mapping (§III-C.1).  Page-table updates flow the
other way: the IOMMU invalidates the matching ATC entries per the ATS
protocol.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import partial
from typing import Tuple
from weakref import WeakValueDictionary

from repro.kernel.page_table import PAGE_SIZE, PageFault, UnifiedPageTable, vpn_of


class Iommu:
    """Host-side IOMMU: page-table walker plus ATC invalidation fan-out."""

    def __init__(self, page_table: UnifiedPageTable) -> None:
        self.page_table = page_table
        # An ATC holds its IOMMU and the IOMMU its page table, so the IOMMU
        # holds ATCs weakly and the page table's listener holds only that
        # registry: a dropped system needs no cyclic collection.
        self._atcs: "WeakValueDictionary[str, Atc]" = WeakValueDictionary()
        page_table.on_invalidate(partial(_invalidate_each, self._atcs))

    def register_atc(self, atc: "Atc") -> None:
        if atc.name in self._atcs:
            raise ValueError(f"ATC {atc.name!r} already registered")
        self._atcs[atc.name] = atc

    def walk(self, vaddr: int, write: bool = False) -> Tuple[int, int]:
        """Walk the page table; returns ``(pfn, node)``.

        Raises :class:`PageFault` for frame-less pages so HMM can run
        the fault path first.
        """
        self.page_table.translate(vaddr, write=write)
        entry = self.page_table.entry(vaddr)
        assert entry.pfn is not None and entry.node is not None
        return entry.pfn, entry.node


def _invalidate_each(atcs: "WeakValueDictionary[str, Atc]", vpn: int) -> None:
    """Fan one page-table invalidation out to every live ATC."""
    for atc in atcs.values():
        atc.invalidate(vpn)


class Atc:
    """Device-side address translation cache (LRU)."""

    def __init__(self, name: str, iommu: Iommu, entries: int = 64) -> None:
        if entries <= 0:
            raise ValueError("ATC needs at least one entry")
        self.name = name
        self.iommu = iommu
        self.capacity = entries
        self._cache: "OrderedDict[int, Tuple[int, int]]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.invalidated = 0
        iommu.register_atc(self)

    def translate(self, vaddr: int, write: bool = False) -> int:
        """Resolve ``vaddr`` to a physical address, filling on miss."""
        vpn = vpn_of(vaddr)
        cached = self._cache.get(vpn)
        if cached is not None:
            self.hits += 1
            self._cache.move_to_end(vpn)
            pfn, _node = cached
            return pfn * PAGE_SIZE + vaddr % PAGE_SIZE
        self.misses += 1
        pfn, node = self.iommu.walk(vaddr, write=write)
        self._fill(vpn, pfn, node)
        return pfn * PAGE_SIZE + vaddr % PAGE_SIZE

    def node_of(self, vaddr: int) -> int:
        """NUMA node of the frame backing ``vaddr`` (translating first)."""
        vpn = vpn_of(vaddr)
        cached = self._cache.get(vpn)
        if cached is None:
            self.translate(vaddr)
            cached = self._cache[vpn]
        return cached[1]

    def _fill(self, vpn: int, pfn: int, node: int) -> None:
        if len(self._cache) >= self.capacity:
            self._cache.popitem(last=False)
        self._cache[vpn] = (pfn, node)

    def invalidate(self, vpn: int) -> None:
        if self._cache.pop(vpn, None) is not None:
            self.invalidated += 1

    def invalidate_all(self) -> None:
        self.invalidated += len(self._cache)
        self._cache.clear()

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __contains__(self, vaddr: int) -> bool:
        return vpn_of(vaddr) in self._cache
