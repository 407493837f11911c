"""Tests for Flex Bus and the NUMA topology."""

import pytest

from repro.config.presets import FPGA_400, NUMA_EXTRA_PS
from repro.interconnect.flexbus import FlexBus
from repro.interconnect.noc import DEFAULT_COORDS, NocTopology
from repro.sim.engine import Simulator


# ------------------------------ FlexBus -------------------------------
def test_flexbus_oneway_latency():
    bus = FlexBus(Simulator(), FPGA_400)
    assert bus.oneway_ps == bus.oneway_at(0) == FPGA_400.phy_oneway_ps
    assert bus.cache_requests == 0


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
