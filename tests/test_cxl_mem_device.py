"""Tests for the CXL device type classes."""

from repro.cache.llc import SharedLLC
from repro.config import fpga_system
from repro.config.system import DramParams
from repro.cxl.device import Type1Device, Type2Device
from repro.mem.address import AddressRange
from repro.mem.controller import MemoryController
from repro.mem.interface import MemoryInterface
from repro.sim.engine import Simulator


def host_fixture():
    config = fpga_system()
    sim = Simulator()
    memif = MemoryInterface(config.host.memif_oneway_ps)
    memif.attach(
        "host",
        AddressRange(0, 1 << 30, "host"),
        MemoryController(DramParams(jitter_ps=0), channels=2, seed=1),
    )
    llc = SharedLLC(sim, config.host, memif)
    return config, sim, memif, llc


def test_type1_has_cache_no_mem():
    config, sim, _memif, llc = host_fixture()
    dev = Type1Device(sim, config.device, llc)
    assert dev.supports_cache
    assert not hasattr(dev, "hdm")
    assert dev.config_space.read("device_type") == 1


def test_type2_attaches_hdm():
    config, sim, memif, llc = host_fixture()
    hdm = AddressRange(1 << 30, (1 << 30) + (1 << 20), "hdm")
    dev = Type2Device(sim, config.device, config.host, llc, memif, hdm)
    assert dev.supports_cache
    assert dev.hdm == hdm
    assert memif.target_of((1 << 30) + 64) == "type2"


def test_device_ids_distinct_per_type():
    config, sim, memif, llc = host_fixture()
    t1 = Type1Device(sim, config.device, llc, name="a")
    hdm = AddressRange(1 << 30, (1 << 30) + (1 << 20), "hdm")
    t2 = Type2Device(sim, config.device, config.host, llc, memif, hdm, name="b")
    assert t1.config_space.read("device_id") != t2.config_space.read("device_id")
