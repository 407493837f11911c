"""NUMA nodes and the modified ``numa_init`` routine.

The kernel recognizes CPUs and XPUs as separate NUMA nodes (§III-C.2):
host DRAM binds to CPU nodes, device HDM becomes CPU-less (or
XPU-bound) nodes, and every node's frames come from one physical range
of the unified memory pool.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Sequence

from repro.kernel.page_table import PAGE_SIZE
from repro.mem.address import AddressRange


class NodeKind(enum.Enum):
    CPU = "cpu"
    XPU = "xpu"
    MEMORY_ONLY = "memory"   # e.g. a type-3 expander: CPU-less node


class OutOfMemory(RuntimeError):
    pass


class NumaNode:
    """One NUMA node: compute binding plus a physical frame allocator."""

    def __init__(
        self,
        node_id: int,
        kind: NodeKind,
        region: AddressRange,
        name: str = "",
    ) -> None:
        self.node_id = node_id
        self.kind = kind
        self.region = region
        self.name = name or f"node{node_id}"
        self._next_frame = region.start // PAGE_SIZE
        self._limit_frame = region.end // PAGE_SIZE
        self._free: List[int] = []
        self.allocated_frames = 0

    @property
    def total_frames(self) -> int:
        return self._limit_frame - self.region.start // PAGE_SIZE

    @property
    def free_frames(self) -> int:
        return (self._limit_frame - self._next_frame) + len(self._free)

    def alloc_frame(self) -> int:
        if self._free:
            frame = self._free.pop()
        elif self._next_frame < self._limit_frame:
            frame = self._next_frame
            self._next_frame += 1
        else:
            raise OutOfMemory(f"{self.name}: out of frames")
        self.allocated_frames += 1
        return frame

    def free_frame(self, pfn: int) -> None:
        base = self.region.start // PAGE_SIZE
        if not base <= pfn < self._limit_frame:
            raise ValueError(f"{self.name}: frame {pfn} not from this node")
        self._free.append(pfn)
        self.allocated_frames -= 1

    def owns_frame(self, pfn: int) -> bool:
        return self.region.contains(pfn * PAGE_SIZE)


class NumaRegistry:
    """All NUMA nodes of one host, with allocation policies."""

    def __init__(self) -> None:
        self._nodes: Dict[int, NumaNode] = {}
        self._rr_cursor = 0

    def add(self, node: NumaNode) -> None:
        if node.node_id in self._nodes:
            raise ValueError(f"node {node.node_id} already registered")
        self._nodes[node.node_id] = node

    def remove(self, node_id: int) -> None:
        """Unregister a node, e.g. a fabric lease handed back."""
        del self._nodes[node_id]

    def node(self, node_id: int) -> NumaNode:
        return self._nodes[node_id]

    @property
    def nodes(self) -> Sequence[NumaNode]:
        return [self._nodes[k] for k in sorted(self._nodes)]

    def by_kind(self, kind: NodeKind) -> List[NumaNode]:
        return [n for n in self.nodes if n.kind is kind]

    def alloc_on(self, node_id: int) -> int:
        return self._nodes[node_id].alloc_frame()

    def alloc_local(self, preferred: int) -> int:
        """Local-first allocation with fallback to any node with space."""
        order = [preferred] + [n.node_id for n in self.nodes if n.node_id != preferred]
        for node_id in order:
            node = self._nodes[node_id]
            if node.free_frames > 0:
                return node.alloc_frame()
        raise OutOfMemory("all NUMA nodes exhausted")

    def alloc_interleaved(self) -> int:
        """Round-robin page interleaving across all nodes."""
        nodes = self.nodes
        for _ in range(len(nodes)):
            node = nodes[self._rr_cursor % len(nodes)]
            self._rr_cursor += 1
            if node.free_frames > 0:
                return node.alloc_frame()
        raise OutOfMemory("all NUMA nodes exhausted")

    def node_of_frame(self, pfn: int) -> NumaNode:
        for node in self.nodes:
            if node.owns_frame(pfn):
                return node
        raise LookupError(f"frame {pfn} belongs to no node")


def numa_init(
    host_regions: Sequence[AddressRange],
    device_regions: Sequence[AddressRange] = (),
    expander_regions: Sequence[AddressRange] = (),
) -> NumaRegistry:
    """The modified kernel ``numa_init``: inspect available memory and
    bind each range to a CPU, XPU, or CPU-less node by its type."""
    registry = NumaRegistry()
    node_id = 0
    for region in host_regions:
        registry.add(NumaNode(node_id, NodeKind.CPU, region, f"cpu-node{node_id}"))
        node_id += 1
    for region in device_regions:
        registry.add(NumaNode(node_id, NodeKind.XPU, region, f"xpu-node{node_id}"))
        node_id += 1
    for region in expander_regions:
        registry.add(
            NumaNode(node_id, NodeKind.MEMORY_ONLY, region, f"cxl-node{node_id}")
        )
        node_id += 1
    return registry
