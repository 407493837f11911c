"""Tests for the unified page table."""

import pytest

from repro.kernel.page_table import (
    PAGE_SIZE,
    PageFault,
    UnifiedPageTable,
    vpn_of,
)


def test_map_creates_frameless_entry():
    pt = UnifiedPageTable()
    entry = pt.map(0x1000)
    assert not entry.present
    assert entry.vpn == vpn_of(0x1000)


def test_double_map_rejected():
    pt = UnifiedPageTable()
    pt.map(0x1000)
    with pytest.raises(ValueError):
        pt.map(0x1000)


def test_translate_unmapped_faults():
    pt = UnifiedPageTable()
    with pytest.raises(PageFault):
        pt.translate(0x5000)


def test_translate_frameless_faults_and_counts():
    pt = UnifiedPageTable()
    pt.map(0x1000)
    with pytest.raises(PageFault):
        pt.translate(0x1000)
    assert pt.faults == 1


def test_assign_frame_then_translate():
    pt = UnifiedPageTable()
    pt.map(0x1000)
    pt.assign_frame(0x1000, pfn=42, node=0)
    pa = pt.translate(0x1234)
    assert pa == 42 * PAGE_SIZE + 0x234
    entry = pt.entry(0x1000)
    assert entry.accessed and not entry.dirty


def test_write_sets_dirty():
    pt = UnifiedPageTable()
    pt.map(0x1000)
    pt.assign_frame(0x1000, pfn=1, node=0)
    pt.translate(0x1000, write=True)
    assert pt.entry(0x1000).dirty


def test_readonly_page_rejects_write():
    pt = UnifiedPageTable()
    pt.map(0x1000, writable=False)
    pt.assign_frame(0x1000, pfn=1, node=0)
    with pytest.raises(PermissionError):
        pt.translate(0x1000, write=True)


def test_double_assign_rejected():
    pt = UnifiedPageTable()
    pt.map(0x1000)
    pt.assign_frame(0x1000, pfn=1, node=0)
    with pytest.raises(ValueError):
        pt.assign_frame(0x1000, pfn=2, node=0)


def test_unmap_notifies_and_removes():
    pt = UnifiedPageTable()
    mapped = pt.map(0x1000)
    assert pt.unmap(0x1000) is mapped
    assert mapped.vpn == vpn_of(0x1000)
    with pytest.raises(PageFault):
        pt.entry(0x1000)
    with pytest.raises(PageFault):
        pt.unmap(0x1000)


def test_resident_and_mapped_bytes():
    pt = UnifiedPageTable()
    pt.map(0x1000)
    pt.map(0x2000)
    pt.assign_frame(0x1000, pfn=1, node=0)
    assert pt.mapped_bytes() == 2 * PAGE_SIZE
    assert pt.resident_bytes() == PAGE_SIZE
