"""Tests for the HMM first-touch fault path and page release."""

from repro.kernel.hmm import Hmm
from repro.kernel.numa import NodeKind, NumaNode, NumaRegistry
from repro.kernel.page_table import PAGE_SIZE, UnifiedPageTable
from repro.mem.address import AddressRange


def build(cpu_pages=8, xpu_pages=8):
    pt = UnifiedPageTable()
    reg = NumaRegistry()
    reg.add(NumaNode(0, NodeKind.CPU, AddressRange(0, cpu_pages * PAGE_SIZE)))
    reg.add(
        NumaNode(
            1,
            NodeKind.XPU,
            AddressRange(cpu_pages * PAGE_SIZE, (cpu_pages + xpu_pages) * PAGE_SIZE),
        )
    )
    return pt, reg, Hmm(pt, reg)


def test_first_touch_places_near_accessor():
    pt, reg, hmm = build()
    pt.map(0x10000)
    hmm.touch(0x10000, accessor_node=1)
    assert pt.entry(0x10000).node == 1
    pt.map(0x20000)
    hmm.touch(0x20000, accessor_node=0)
    assert pt.entry(0x20000).node == 0


def test_release_page_returns_frame():
    pt, reg, hmm = build()
    pt.map(0x10000)
    hmm.handle_fault(0x10000, accessor_node=0)
    free_before = reg.node(0).free_frames
    hmm.release_page(0x10000)
    assert reg.node(0).free_frames == free_before + 1
    assert pt.lookup(0x10000) is None


def test_resident_by_node():
    pt, _reg, hmm = build()
    for i, node in enumerate((0, 0, 1)):
        addr = 0x10000 + i * PAGE_SIZE
        pt.map(addr)
        hmm.handle_fault(addr, accessor_node=node)
    by_node = hmm.resident_by_node()
    assert by_node == {0: 2 * PAGE_SIZE, 1: PAGE_SIZE}
