"""Unified coherent memory: plain ``malloc``/``mmap`` for every thread.

A :class:`CohetProcess` owns one unified page table.  ``malloc``
allocates virtual pages without frames (so memory can be overcommitted
beyond physical capacity); the first touch — from a CPU *or* an XPU —
faults the page in near the accessor (§III-C.2).  Data is stored
functionally per page so examples can run real computations through
the same addresses the timing model sees.
"""

from __future__ import annotations

from array import array
from typing import Dict, Optional

from repro.kernel.hmm import Hmm
from repro.kernel.page_table import PAGE_SIZE, vpn_of


class AllocationError(RuntimeError):
    pass


class CohetProcess:
    """One user process with malloc/mmap over the coherent pool."""

    _VA_BASE = 0x0000_7000_0000_0000

    def __init__(self, hmm: Hmm, pid: int = 1, default_node: int = 0) -> None:
        self.hmm = hmm
        self.page_table = hmm.page_table
        self.pid = pid
        self.default_node = default_node
        self._brk = self._VA_BASE
        self._allocations: Dict[int, int] = {}   # vaddr -> size
        self._page_data: Dict[int, bytearray] = {}
        self.mallocs = 0
        self.frees = 0

    # ------------------------------------------------------------------
    # Allocation interface (the Fig. 4(c) programming model)
    # ------------------------------------------------------------------
    def malloc(self, size: int) -> int:
        """Standard malloc: reserve pages, no physical frames yet."""
        if size <= 0:
            raise AllocationError("malloc size must be positive")
        pages = -(-size // PAGE_SIZE)
        vaddr = self._brk
        self._brk += pages * PAGE_SIZE
        for i in range(pages):
            self.page_table.map(vaddr + i * PAGE_SIZE)
        self._allocations[vaddr] = pages * PAGE_SIZE
        self.mallocs += 1
        return vaddr

    def mmap(self, size: int) -> int:
        """mmap(MAP_ANONYMOUS): identical placement semantics here."""
        return self.malloc(size)

    def free(self, vaddr: int) -> None:
        size = self._allocations.pop(vaddr, None)
        if size is None:
            raise AllocationError(f"free of unallocated pointer {vaddr:#x}")
        for offset in range(0, size, PAGE_SIZE):
            self.hmm.release_page(vaddr + offset)
            self._page_data.pop(vpn_of(vaddr + offset), None)
        self.frees += 1

    def allocation_size(self, vaddr: int) -> int:
        return self._allocations[vaddr]

    # ------------------------------------------------------------------
    # Access: every load/store goes through HMM first-touch placement
    # ------------------------------------------------------------------
    def _page(self, vaddr: int, accessor_node: int, write: bool) -> bytearray:
        self.hmm.touch(vaddr, accessor_node, write=write)
        vpn = vpn_of(vaddr)
        page = self._page_data.get(vpn)
        if page is None:
            page = bytearray(PAGE_SIZE)
            self._page_data[vpn] = page
        return page

    def write_bytes(self, vaddr: int, data: bytes, accessor_node: Optional[int] = None) -> None:
        node = self.default_node if accessor_node is None else accessor_node
        offset = 0
        while offset < len(data):
            addr = vaddr + offset
            page = self._page(addr, node, write=True)
            start = addr % PAGE_SIZE
            chunk = min(PAGE_SIZE - start, len(data) - offset)
            page[start : start + chunk] = data[offset : offset + chunk]
            offset += chunk

    def read_bytes(self, vaddr: int, size: int, accessor_node: Optional[int] = None) -> bytes:
        node = self.default_node if accessor_node is None else accessor_node
        out = bytearray()
        offset = 0
        while offset < size:
            addr = vaddr + offset
            page = self._page(addr, node, write=False)
            start = addr % PAGE_SIZE
            chunk = min(PAGE_SIZE - start, size - offset)
            out += page[start : start + chunk]
            offset += chunk
        return bytes(out)

    # ------------------------------------------------------------------
    # Typed helpers for numeric examples: ``array`` typecodes ("f",
    # "d", "q", ...).  Any buffer-protocol object stores as its bytes,
    # so a numpy array stores as it is and ``np.asarray`` views a load.
    # ------------------------------------------------------------------
    def store_array(self, vaddr: int, values, accessor_node: Optional[int] = None) -> None:
        self.write_bytes(vaddr, memoryview(values).tobytes(), accessor_node)

    def load_array(
        self,
        vaddr: int,
        typecode: str,
        count: int,
        accessor_node: Optional[int] = None,
    ) -> array:
        out = array(typecode)
        out.frombytes(self.read_bytes(vaddr, count * out.itemsize, accessor_node))
        return out

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def resident_bytes(self) -> int:
        return self.page_table.resident_bytes()

    def mapped_bytes(self) -> int:
        return self.page_table.mapped_bytes()

    def placement(self, vaddr: int, size: int) -> Dict[int, int]:
        """Bytes of this allocation resident per NUMA node."""
        out: Dict[int, int] = {}
        for offset in range(0, size, PAGE_SIZE):
            entry = self.page_table.lookup(vaddr + offset)
            if entry is not None and entry.present:
                out[entry.node] = out.get(entry.node, 0) + PAGE_SIZE
        return out
