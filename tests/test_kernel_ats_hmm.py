"""Tests for ATS (ATC + IOMMU) and HMM fault/migration paths."""

import pytest

from repro.kernel.ats import Atc, Iommu
from repro.kernel.hmm import Hmm, MigrationError
from repro.kernel.numa import NodeKind, NumaNode, NumaRegistry, OutOfMemory
from repro.kernel.page_table import PAGE_SIZE, PageFault, UnifiedPageTable
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
    hmm = Hmm(pt, reg)
    atc = Atc("dev.atc", hmm.iommu, entries=4)
    return pt, reg, hmm, atc


def test_first_touch_places_near_accessor():
    pt, reg, hmm, _atc = build()
    pt.map(0x10000)
    hmm.touch(0x10000, accessor_node=1)
    assert pt.entry(0x10000).node == 1
    pt.map(0x20000)
    hmm.touch(0x20000, accessor_node=0)
    assert pt.entry(0x20000).node == 0


def test_atc_miss_then_hit():
    pt, _reg, hmm, atc = build()
    pt.map(0x10000)
    hmm.handle_fault(0x10000, accessor_node=1)
    pa1 = atc.translate(0x10080)
    assert atc.misses == 1 and atc.hits == 0
    pa2 = atc.translate(0x10040)
    assert atc.hits == 1
    assert pa1 - pa2 == 0x40


def test_atc_translate_frameless_faults():
    pt, _reg, _hmm, atc = build()
    pt.map(0x10000)
    with pytest.raises(PageFault):
        atc.translate(0x10000)


def test_atc_lru_capacity():
    pt, _reg, hmm, atc = build()
    for i in range(5):
        addr = 0x10000 + i * PAGE_SIZE
        pt.map(addr)
        hmm.handle_fault(addr, accessor_node=0)
        atc.translate(addr)
    # Capacity is 4: the first translation was evicted.
    assert 0x10000 not in atc
    assert 0x14000 in atc


def test_migration_invalidates_atc():
    pt, reg, hmm, atc = build()
    pt.map(0x10000)
    hmm.handle_fault(0x10000, accessor_node=0)
    atc.translate(0x10000)
    assert 0x10000 in atc
    hmm.migrate_page(0x10000, target_node=1)
    assert 0x10000 not in atc  # ATS invalidation propagated
    assert pt.entry(0x10000).node == 1
    assert atc.invalidated == 1
    # A fresh translation returns the new frame.
    pa = atc.translate(0x10000)
    assert reg.node_of_frame(pa // PAGE_SIZE).node_id == 1


def test_migration_frees_old_frame():
    pt, reg, hmm, _atc = build(cpu_pages=1)
    pt.map(0x10000)
    hmm.handle_fault(0x10000, accessor_node=0)
    assert reg.node(0).free_frames == 0
    hmm.migrate_page(0x10000, target_node=1)
    assert reg.node(0).free_frames == 1


def test_migrate_to_same_node_is_noop():
    pt, _reg, hmm, _atc = build()
    pt.map(0x10000)
    hmm.handle_fault(0x10000, accessor_node=0)
    gen = pt.generation
    hmm.migrate_page(0x10000, target_node=0)
    assert pt.generation == gen
    assert hmm.migrations == 0


def test_migrate_unbacked_page_rejected():
    pt, _reg, hmm, _atc = build()
    pt.map(0x10000)
    with pytest.raises(MigrationError):
        hmm.migrate_page(0x10000, target_node=1)


def test_migration_to_a_full_node_leaves_the_page_in_place():
    pt, _reg, hmm, _atc = build(xpu_pages=1)
    blocked, resumed = [], []
    hmm.register_device(
        "dev0", memory_node=1,
        block_access=blocked.append, resume_access=resumed.append,
    )
    pt.map(0x90000)
    hmm.handle_fault(0x90000, accessor_node=1)  # fills the XPU's frame
    pt.map(0x10000)
    hmm.handle_fault(0x10000, accessor_node=0)
    entry = pt.entry(0x10000)
    pfn, gen = entry.pfn, pt.generation
    with pytest.raises(OutOfMemory):
        hmm.migrate_page(0x10000, target_node=1)
    assert (entry.node, entry.pfn, pt.generation) == (0, pfn, gen)
    assert not entry.blocked
    assert resumed == blocked == [entry.vpn]
    assert hmm.migrations == 0


def test_device_callbacks_block_and_resume():
    pt, _reg, hmm, _atc = build()
    blocked, resumed = [], []
    hmm.register_device(
        "dev0", memory_node=1,
        block_access=blocked.append, resume_access=resumed.append,
    )
    pt.map(0x10000)
    hmm.handle_fault(0x10000, accessor_node=0)
    hmm.migrate_page(0x10000, target_node=1)
    assert blocked == [pt.entry(0x10000).vpn]
    assert resumed == blocked
    assert hmm.devices[0].migrations_seen == 1


def test_duplicate_device_registration_rejected():
    _pt, _reg, hmm, _atc = build()
    hmm.register_device("dev0", None, lambda v: None, lambda v: None)
    with pytest.raises(ValueError):
        hmm.register_device("dev0", None, lambda v: None, lambda v: None)


def test_release_page_returns_frame():
    pt, reg, hmm, _atc = build()
    pt.map(0x10000)
    hmm.handle_fault(0x10000, accessor_node=0)
    free_before = reg.node(0).free_frames
    hmm.release_page(0x10000)
    assert reg.node(0).free_frames == free_before + 1
    assert pt.lookup(0x10000) is None


def test_resident_by_node():
    pt, _reg, hmm, _atc = build()
    for i, node in enumerate((0, 0, 1)):
        addr = 0x10000 + i * PAGE_SIZE
        pt.map(addr)
        hmm.handle_fault(addr, accessor_node=node)
    by_node = hmm.resident_by_node()
    assert by_node == {0: 2 * PAGE_SIZE, 1: PAGE_SIZE}
