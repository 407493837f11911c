"""Tests for NUMA nodes, allocation policies, and numa_init."""

import pytest

from repro.kernel.numa import NodeKind, NumaNode, NumaRegistry, numa_init
from repro.kernel.numa import OutOfMemory
from repro.kernel.page_table import PAGE_SIZE
from repro.mem.address import AddressRange


def region(start_pages, pages, name=""):
    return AddressRange(
        start_pages * PAGE_SIZE, (start_pages + pages) * PAGE_SIZE, name
    )


def test_node_frame_allocation_within_region():
    node = NumaNode(0, NodeKind.CPU, region(0, 4))
    frames = [node.alloc_frame() for _ in range(4)]
    assert frames == [0, 1, 2, 3]
    with pytest.raises(OutOfMemory):
        node.alloc_frame()


def test_node_free_and_reuse():
    node = NumaNode(0, NodeKind.CPU, region(10, 2))
    f = node.alloc_frame()
    node.free_frame(f)
    assert node.alloc_frame() == f


def test_node_rejects_foreign_frame():
    node = NumaNode(0, NodeKind.CPU, region(0, 2))
    with pytest.raises(ValueError):
        node.free_frame(100)


def test_registry_local_allocation_with_fallback():
    reg = NumaRegistry()
    reg.add(NumaNode(0, NodeKind.CPU, region(0, 1)))
    reg.add(NumaNode(1, NodeKind.XPU, region(1, 2)))
    f0 = reg.alloc_local(0)
    assert reg.node_of_frame(f0).node_id == 0
    # Node 0 is now full; local allocation falls back to node 1.
    f1 = reg.alloc_local(0)
    assert reg.node_of_frame(f1).node_id == 1


def test_registry_exhaustion():
    reg = NumaRegistry()
    reg.add(NumaNode(0, NodeKind.CPU, region(0, 1)))
    reg.alloc_local(0)
    with pytest.raises(OutOfMemory):
        reg.alloc_local(0)


def test_duplicate_node_rejected():
    reg = NumaRegistry()
    reg.add(NumaNode(0, NodeKind.CPU, region(0, 1)))
    with pytest.raises(ValueError):
        reg.add(NumaNode(0, NodeKind.CPU, region(1, 1)))


def test_numa_init_orders_and_kinds():
    reg = numa_init(
        host_regions=[region(0, 4), region(4, 4)],
        device_regions=[region(8, 4)],
    )
    kinds = [n.kind for n in reg.nodes]
    assert kinds == [NodeKind.CPU, NodeKind.CPU, NodeKind.XPU]
    assert [n.node_id for n in reg.nodes] == [0, 1, 2]
    assert len(reg.by_kind(NodeKind.CPU)) == 2
    # Device memory appears as its own XPU-bound node.
    assert reg.node(2).region == region(8, 4)
