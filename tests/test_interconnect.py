"""Tests for PCIe, Flex Bus, and the NUMA topology."""

import pytest

from repro.config.presets import ASIC_1500, FPGA_400, PCIE_FPGA_400, NUMA_EXTRA_PS
from repro.interconnect.flexbus import FlexBus, FlexBusChannel
from repro.interconnect.noc import DEFAULT_COORDS, NocTopology
from repro.interconnect.pcie import MmioPath, PcieLink, Tlp, TlpType
from repro.sim.engine import Simulator


# ------------------------------- PCIe ---------------------------------
def test_tlp_segmentation():
    link = PcieLink(Simulator(), PCIE_FPGA_400)
    tlps = link.segment(0, 1300, TlpType.MEM_WRITE)
    assert [t.size for t in tlps] == [512, 512, 276]
    assert [t.addr for t in tlps] == [0, 512, 1024]


def test_tlp_wire_bytes_include_header():
    tlp = Tlp(TlpType.MEM_WRITE, 0, 64)
    assert tlp.wire_bytes(60) == 124
    read = Tlp(TlpType.MEM_READ, 0, 64)
    assert read.wire_bytes(60) == 60  # reads carry no payload


def test_posted_write_ordering():
    sim = Simulator()
    link = PcieLink(sim, PCIE_FPGA_400)
    done = []
    link.transmit(Tlp(TlpType.MEM_WRITE, 0, 512), lambda: done.append("w1"))
    link.transmit(Tlp(TlpType.MEM_WRITE, 512, 512), lambda: done.append("w2"))
    sim.run()
    assert done == ["w1", "w2"]


def test_segment_empty_rejected():
    link = PcieLink(Simulator(), PCIE_FPGA_400)
    with pytest.raises(ValueError):
        link.segment(0, 0, TlpType.MEM_READ)


def test_mmio_write_strictly_ordered():
    sim = Simulator()
    mmio = MmioPath(sim, PCIE_FPGA_400)
    t1 = mmio.write()
    t2 = mmio.write()
    assert t2 - t1 == PCIE_FPGA_400.mmio_write_ps
    assert mmio.writes == 2


def test_mmio_read_round_trip():
    sim = Simulator()
    mmio = MmioPath(sim, PCIE_FPGA_400)
    assert mmio.read() == PCIE_FPGA_400.mmio_read_ps


# ------------------------------ FlexBus -------------------------------
def test_flexbus_oneway_latency():
    sim = Simulator()
    bus = FlexBus(sim, FPGA_400)
    arrived = []
    bus.traverse(FlexBusChannel.CACHE, on_arrive=lambda: arrived.append(sim.now))
    sim.run()
    assert arrived == [FPGA_400.phy_oneway_ps]
    assert bus.traffic[FlexBusChannel.CACHE] == 1


def test_flexbus_round_trip():
    bus = FlexBus(Simulator(), ASIC_1500)
    assert bus.round_trip_ps() == 2 * ASIC_1500.phy_oneway_ps


# ------------------------------- NoC ----------------------------------
def test_topology_calibrated_distances():
    topo = NocTopology()
    for node, extra in NUMA_EXTRA_PS.items():
        assert topo.extra_ps(node) == extra


def test_topology_nearest_farthest():
    topo = NocTopology()
    assert topo.nearest_node() == 7
    assert topo.farthest_node() == 3


def test_topology_mesh_fallback():
    topo = NocTopology(extra_ps={})
    # Same socket: node 6 is one vertical hop, node 5 one horizontal hop.
    assert topo.mesh_distance_ps(6) == topo.hop_y_ps
    assert topo.mesh_distance_ps(5) == topo.hop_x_ps
    # Remote socket pays the UPI crossing.
    assert topo.mesh_distance_ps(0) > topo.upi_ps


def test_topology_bad_device_node():
    with pytest.raises(ValueError):
        NocTopology(device_node=42)


def test_topology_nodes_sorted():
    topo = NocTopology()
    assert topo.nodes == tuple(range(8))
