"""Tests for the XPU driver and the fabric manager."""

import gc
import weakref

import pytest

from repro.config import asic_system, fpga_system
from repro.core.cohet import CohetSystem, DeviceSpec
from repro.cxl.device import DeviceType
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
def test_probe_reports_capabilities():
    system = small_system()
    info = system.driver("xpu0").probe()
    assert info["device_type"] is DeviceType.TYPE2
    assert info["supports_cache"] and info["supports_mem"]


def test_driver_registers_atc_with_iommu():
    system = small_system()
    driver = system.driver("xpu0")
    assert driver.atc is not None
    ptr = system.process.malloc(4096)
    system.hmm.touch(ptr, accessor_node=driver.memory_node)
    pa = driver.atc.translate(ptr)
    assert pa >= CohetSystem.HDM_BASE  # first touch landed in device memory


def test_driver_blocks_during_migration():
    system = small_system()
    driver = system.driver("xpu0")
    ptr = system.process.malloc(4096)
    system.hmm.touch(ptr, accessor_node=0)
    vpn = system.page_table.entry(ptr).vpn
    assert driver.device_may_access(vpn)
    system.hmm.migrate_page(ptr, target_node=driver.memory_node)
    # After migration completes access is resumed.
    assert driver.device_may_access(vpn)


def test_mmap_requires_open():
    system = small_system()
    driver = system.driver("xpu0")
    driver.release()
    with pytest.raises(RuntimeError):
        driver.mmap_bar(0)


def test_dropped_system_is_freed_without_gc():
    # The driver's HMM callbacks and the IOMMU's ATC registry hold nothing
    # that holds them, so the system goes with its last reference, not at
    # the next full collection.
    gc.disable()
    try:
        system = CohetSystem.build_default(asic_system())
        parts = (system.sim, system.hmm, system.iommu, system.page_table)
        refs = [weakref.ref(part) for part in parts]
        del system, parts
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()


# --------------------------- Fabric manager ---------------------------
def test_fabric_allocate_and_release():
    fm = FabricManager()
    fm.add_xpu("xpu0", "asic")
    fm.add_memory("mem0", AddressRange(0, 1 << 20))
    xpu = fm.allocate_xpu("hostA")
    assert xpu.bound_to == "hostA"
    mem = fm.allocate_memory("hostA", 1 << 16)
    assert fm.holdings("hostA") == ["mem0", "xpu0"]
    fm.release("xpu0")
    fm.release("mem0")
    assert fm.free_xpus == 1
    assert fm.free_memory_bytes == 1 << 20


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


def test_fabric_double_release_rejected():
    fm = FabricManager()
    fm.add_xpu("xpu0", "asic")
    fm.allocate_xpu("hostA")
    fm.release("xpu0")
    with pytest.raises(ResourceError):
        fm.release("xpu0")
    with pytest.raises(ResourceError):
        fm.release("ghost")
