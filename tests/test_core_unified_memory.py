"""Tests for the Cohet process memory interface."""

from array import array

import numpy as np
import pytest

from repro.config import fpga_system
from repro.core.cohet import CohetSystem, DeviceSpec
from repro.core.unified_memory import AllocationError
from repro.cxl.device import DeviceType
from repro.kernel.page_table import PAGE_SIZE


def small_system(host_bytes=1 << 26, hdm_bytes=1 << 24):
    return CohetSystem(
        fpga_system(),
        host_nodes=1,
        devices=[DeviceSpec("xpu0", DeviceType.TYPE2, hdm_bytes=hdm_bytes)],
        host_bytes=host_bytes,
    )


def test_malloc_reserves_without_frames():
    system = small_system()
    p = system.process
    ptr = p.malloc(3 * PAGE_SIZE + 1)
    assert p.mapped_bytes() == 4 * PAGE_SIZE
    assert p.resident_bytes() == 0


def test_malloc_zero_rejected():
    system = small_system()
    with pytest.raises(AllocationError):
        system.process.malloc(0)


def test_overcommit_beyond_physical_memory():
    system = small_system(host_bytes=1 << 22, hdm_bytes=1 << 22)  # 8 MB total
    p = system.process
    # Reserve 64 MB of virtual space: malloc must succeed untouched.
    ptr = p.malloc(1 << 26)
    assert p.resident_bytes() == 0
    # Touching a few pages works fine.
    p.write_bytes(ptr, b"hello")
    assert p.resident_bytes() == PAGE_SIZE


def test_first_touch_by_cpu_lands_on_cpu_node():
    system = small_system()
    p = system.process
    ptr = p.malloc(PAGE_SIZE)
    p.write_bytes(ptr, b"x", accessor_node=0)
    assert p.placement(ptr, PAGE_SIZE) == {0: PAGE_SIZE}


def test_first_touch_by_xpu_lands_on_xpu_node():
    system = small_system()
    p = system.process
    xpu_node = system.driver("xpu0").memory_node
    ptr = p.malloc(PAGE_SIZE)
    p.write_bytes(ptr, b"x", accessor_node=xpu_node)
    assert p.placement(ptr, PAGE_SIZE) == {xpu_node: PAGE_SIZE}


def test_write_read_roundtrip_across_pages():
    system = small_system()
    p = system.process
    ptr = p.malloc(3 * PAGE_SIZE)
    data = bytes(range(256)) * 40  # 10240 bytes, crosses pages
    p.write_bytes(ptr + 100, data)
    assert p.read_bytes(ptr + 100, len(data)) == data


def test_typed_array_roundtrip():
    system = small_system()
    p = system.process
    ptr = p.malloc(1 << 16)
    arr = np.arange(1000, dtype=np.float64)
    p.store_array(ptr, arr)
    out = p.load_array(ptr, "d", 1000)
    assert isinstance(out, array) and out.typecode == "d"
    np.testing.assert_array_equal(arr, np.asarray(out))
    # A strided view stores its elements, not its underlying buffer.
    strided = np.arange(2000, dtype=np.float64)[::2]
    p.store_array(ptr, strided)
    assert p.read_bytes(ptr, strided.nbytes) == strided.tobytes()


def test_free_releases_frames_and_data():
    system = small_system()
    p = system.process
    ptr = p.malloc(2 * PAGE_SIZE)
    p.write_bytes(ptr, b"abc")
    node0 = system.numa.node(0)
    used = node0.allocated_frames
    p.free(ptr)
    assert node0.allocated_frames == used - 1
    with pytest.raises(AllocationError):
        p.free(ptr)


def test_fresh_memory_reads_zero():
    system = small_system()
    p = system.process
    ptr = p.malloc(PAGE_SIZE)
    assert p.read_bytes(ptr, 16) == bytes(16)


def test_allocation_size_tracked():
    system = small_system()
    p = system.process
    ptr = p.malloc(5000)
    assert p.allocation_size(ptr) == 2 * PAGE_SIZE
