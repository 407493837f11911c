"""Tests for the XPU driver and the fabric manager."""

import gc
import weakref

import pytest

from repro.config import asic_system, fpga_system
from repro.core.cohet import CohetSystem, DeviceSpec
from repro.cxl.device import DeviceType
from repro.kernel.driver import XpuDriver
from repro.kernel.fabric import FabricManager, ResourceError
from repro.mem.address import AddressRange


def small_system():
    return CohetSystem(
        fpga_system(),
        host_nodes=1,
        devices=[DeviceSpec("xpu0", DeviceType.TYPE2, hdm_bytes=1 << 24)],
        host_bytes=1 << 28,
    )


# ------------------------------ Driver --------------------------------
def test_mmap_requires_open():
    system = small_system()
    booted = system.driver("xpu0")
    driver = XpuDriver(booted.device, booted.enumerated)
    with pytest.raises(RuntimeError):
        driver.mmap_bar(0)
    driver.open()
    assert driver.mmap_bar(0) == booted.mmap_bar(0)


def test_dropped_system_is_freed_without_gc():
    # Nothing the system holds refers back to it, so the system goes with
    # its last reference, not at the next full collection.
    gc.disable()
    try:
        system = CohetSystem.build_default(asic_system())
        parts = (system.sim, system.hmm, system.page_table)
        refs = [weakref.ref(part) for part in parts]
        del system, parts
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()


# --------------------------- Fabric manager ---------------------------
def test_fabric_allocate_binds_to_the_host():
    fm = FabricManager()
    fm.add_xpu("xpu0", "asic")
    fm.add_memory("mem0", AddressRange(0, 1 << 20))
    assert (fm.free_xpus, fm.free_memory_bytes) == (1, 1 << 20)
    xpu = fm.allocate_xpu("hostA")
    assert xpu.bound_to == "hostA"
    mem = fm.allocate_memory("hostA", 1 << 16)
    assert mem.bound_to == "hostA"
    assert fm.holdings("hostA") == ["mem0", "xpu0"]
    assert (fm.free_xpus, fm.free_memory_bytes) == (0, 0)


def test_fabric_exhaustion():
    fm = FabricManager()
    fm.add_xpu("xpu0", "asic")
    fm.allocate_xpu("hostA")
    with pytest.raises(ResourceError):
        fm.allocate_xpu("hostB")


def test_fabric_memory_size_filter():
    fm = FabricManager()
    fm.add_memory("small", AddressRange(0, 1 << 12))
    with pytest.raises(ResourceError):
        fm.allocate_memory("hostA", 1 << 20)


def test_fabric_profile_filter():
    fm = FabricManager()
    fm.add_xpu("fpga0", "fpga")
    with pytest.raises(ResourceError):
        fm.allocate_xpu("hostA", profile_name="asic")
    assert fm.allocate_xpu("hostA", profile_name="fpga").name == "fpga0"


