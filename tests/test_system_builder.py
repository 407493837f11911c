"""Tests for the unified system-construction layer (repro.system).

The parity tests hand-wire systems exactly the way the pre-builder
harnesses did and assert that builder-constructed systems measure
bit-identical numbers — the guarantee that let every harness move onto
the builder without disturbing the regenerated paper figures.
"""

import pytest

from repro.cache.llc import SharedLLC
from repro.calibration.microbench import CxlTestbench
from repro.config import asic_system, fpga_system
from repro.core.cohet import CohetSystem, DeviceSpec
from repro.core.supernode import Supernode, SupernodeHost
from repro.cxl.device import DeviceType, Type1Device
from repro.devices.dma import DmaEngine
from repro.devices.lsu import LoadStoreUnit
from repro.mem.address import AddressRange
from repro.mem.controller import MemoryController
from repro.mem.interface import MemoryInterface
from repro.nic.base import HostValues
from repro.nic.cxl_nic import CxlRaoNic
from repro.rao.circustent import CIRCUSTENT_PATTERNS, make_workload
from repro.sim.engine import Simulator
from repro.system import (
    COMPONENT_KINDS,
    TOPOLOGIES,
    BuildError,
    NodeSpec,
    SystemBuilder,
    Topology,
    fanout_topology,
    topology_by_name,
)


# --------------------------- registries -------------------------------
def test_every_registered_topology_builds():
    builder = SystemBuilder(fpga_system())
    for name in TOPOLOGIES.names():
        system = builder.build(name)
        assert system.nodes, name
        assert set(system.nodes) == {n.name for n in system.topology.nodes}


def test_component_kinds_cover_the_catalogue():
    SystemBuilder(fpga_system()).build("microbench")  # force registration
    expected = {
        "host", "cxl.type1", "cxl.type2", "lsu", "dma", "noc",
        "nic.cxl_rao", "nic.pcie_rao", "rpc.rpcnic", "rpc.cxl",
        "supernode.host", "supernode.fabric",
    }
    assert expected <= set(COMPONENT_KINDS.names())
    assert "cxl.type3" not in COMPONENT_KINDS.names()  # no CXL.mem expander model


def test_unknown_topology_lists_options():
    with pytest.raises(ValueError, match="microbench"):
        topology_by_name("nope")


def test_unknown_component_kind_rejected():
    topo = Topology(name="bad", nodes=(NodeSpec("x", "not.a.kind"),))
    with pytest.raises(ValueError, match="not.a.kind"):
        SystemBuilder(fpga_system()).build(topo)


def test_topology_validation_catches_bad_graphs():
    dupe = Topology(
        name="dupe",
        nodes=(NodeSpec("a", "dma"), NodeSpec("a", "dma")),
    )
    with pytest.raises(ValueError, match="duplicate"):
        SystemBuilder(fpga_system()).build(dupe)


def test_device_without_host_is_a_clear_error():
    topo = Topology(name="orphan", nodes=(NodeSpec("dev", "cxl.type1"),))
    with pytest.raises(BuildError, match="host"):
        SystemBuilder(fpga_system()).build(topo)


def test_type2_requires_hdm_bytes():
    topo = Topology(
        name="no-hdm",
        nodes=(NodeSpec("host", "host"), NodeSpec("xpu", "cxl.type2")),
    )
    with pytest.raises(ValueError, match="hdm_bytes"):
        SystemBuilder(fpga_system()).build(topo)


# ----------------------- microbench parity ----------------------------
def _hand_wired_testbench(config, seed=1234):
    """The exact pre-builder CxlTestbench wiring, kept as the oracle."""
    sim = Simulator()
    memif = MemoryInterface(config.host.memif_oneway_ps)
    controller = MemoryController(
        config.host.dram, channels=config.host.mem_channels, seed=seed
    )
    memif.attach("host", AddressRange(0, 1 << 40, "host-dram"), controller)
    llc = SharedLLC(sim, config.host, memif)
    device = Type1Device(sim, config.device, llc, name="cxl-dev")
    lsu = LoadStoreUnit(sim, device.dcoh)
    dma = DmaEngine(sim, config.dma)
    return sim, llc, lsu, dma


@pytest.mark.parametrize("make", [fpga_system, asic_system])
def test_builder_testbench_matches_hand_wired_latency(make):
    config = make()
    _sim, llc, lsu, _dma = _hand_wired_testbench(config)
    addrs = lsu.sequential_lines(0x200000, 32)
    for addr in addrs:
        llc.flush(addr)
    direct = lsu.run_latency(addrs)

    bench = CxlTestbench(config)
    addrs2 = bench.lsu.sequential_lines(0x200000, 32)
    for addr in addrs2:
        bench.llc.flush(addr)
    built = bench.lsu.run_latency(addrs2)

    assert built.latencies.samples == direct.latencies.samples


def test_builder_testbench_matches_hand_wired_dma():
    config = fpga_system()
    *_rest, dma = _hand_wired_testbench(config)
    direct = dma.measure_latency(64, repeats=20)
    built = CxlTestbench(config).dma.measure_latency(64, repeats=20)
    assert built.latencies.samples == direct.latencies.samples


def test_builder_rao_matches_hand_wired():
    config = asic_system()
    workload = make_workload("STRIDE1", ops=256, table_bytes=1 << 30, seed=7)

    # Pre-builder _build_cxl_nic wiring.
    sim = Simulator()
    memif = MemoryInterface(config.host.memif_oneway_ps)
    controller = MemoryController(config.host.dram, channels=config.host.mem_channels)
    memif.attach("host", AddressRange(0, 1 << 40, "host"), controller)
    llc = SharedLLC(sim, config.host, memif)
    direct = CxlRaoNic(sim, config, llc, HostValues(), pe_count=None)
    direct.warm()
    direct_run = direct.run(workload.requests)

    built = SystemBuilder(config).build("rao-cxl").node("cxl-nic")
    built.warm()
    built_run = built.run(workload.requests)

    assert built_run.elapsed_ps == direct_run.elapsed_ps
    assert built_run.throughput_mops == direct_run.throughput_mops


# ------------------------------ forking -------------------------------
def _warmed_rao_system():
    system = SystemBuilder(asic_system()).build("rao-cxl")
    system.node("cxl-nic").warm()
    return system


@pytest.mark.parametrize("pattern", CIRCUSTENT_PATTERNS)
def test_fork_runs_like_a_freshly_warmed_system(pattern):
    requests = make_workload(pattern, ops=256).requests
    outcomes = []
    for system in (_warmed_rao_system().fork(), _warmed_rao_system()):
        nic = system.node("cxl-nic")
        run = nic.run(requests)
        outcomes.append((run, nic.hmc_hits, nic.hmc_misses, system.sim.now))
    assert outcomes[0] == outcomes[1]


def test_running_a_fork_leaves_the_original_untouched():
    original = _warmed_rao_system()

    def snapshot(system):
        nic = system.node("cxl-nic")
        lines = [
            (addr, block.state, block.last_touch, block.locked)
            for addr, block in nic.hmc.array.blocks()
        ]
        return (system.sim.now, system.sim.executed, system.llc.requests,
                nic.dcoh.reads, lines)

    before = snapshot(original)
    fork = original.fork()
    fork.node("cxl-nic").run(make_workload("RAND", ops=256).requests)
    assert snapshot(fork) != before
    assert snapshot(original) == before


def test_fork_refuses_a_pending_calendar():
    system = SystemBuilder(asic_system()).build("rao-cxl")
    system.sim.schedule_after(10, lambda: None)
    with pytest.raises(RuntimeError, match="still holds 1 event"):
        system.fork()


# ----------------------- experiment determinism -----------------------
def test_experiments_are_deterministic_through_the_builder():
    from repro.harness.experiments import run_experiment

    first = run_experiment("fig12", trials=3)
    second = run_experiment("fig12", trials=3)
    assert first.text == second.text
    assert first.series == second.series


# --------------------------- HDM windows ------------------------------
def test_hdm_windows_allocate_in_declaration_order():
    system = SystemBuilder(fpga_system()).build(
        Topology(
            name="two-hdm",
            nodes=(
                # size=None -> the configured DRAM size, which ends
                # below the 32 GB HDM base (the Cohet layout).
                NodeSpec("host", "host", {"size": None}),
                NodeSpec("xpu0", "cxl.type2", {"hdm_bytes": 1 << 24}),
                NodeSpec("xpu1", "cxl.type2", {"hdm_bytes": 1 << 24}),
            ),
        )
    )
    first, second = system.node("xpu0"), system.node("xpu1")
    assert first.hdm.start == CohetSystem.HDM_BASE
    assert second.hdm.start == first.hdm.end


# ------------------------------ cohet ---------------------------------
def test_cohet_builds_through_topology_layer():
    system = CohetSystem(
        fpga_system(),
        host_nodes=2,
        devices=[
            DeviceSpec("xpu0", DeviceType.TYPE2, hdm_bytes=1 << 24),
            DeviceSpec("nic0", DeviceType.TYPE1),
        ],
    )
    assert {n.kind for n in system.topology.nodes} == {
        "host", "cxl.type2", "cxl.type1"
    }
    assert system.built.node("xpu0") is system.devices["xpu0"]
    assert system.llc is system.built.llc


def test_cohet_build_default_is_a_topology_wrapper():
    system = CohetSystem.build_default(fpga_system())
    assert "xpu0" in system.devices
    assert system.devices["xpu0"].hdm.size == 1 << 30


def test_cohet_from_topology_roundtrip():
    topology = topology_by_name("cohet-default", hdm_bytes=1 << 24)
    system = CohetSystem.from_topology(fpga_system(), topology)
    assert system.devices["xpu0"].hdm.size == 1 << 24


# ---------------------------- supernode -------------------------------
def test_supernode_topology_builds_and_leases():
    system = SystemBuilder(fpga_system()).build("supernode-2host")
    fabric = system.node("fabric")
    assert isinstance(fabric, Supernode)
    assert isinstance(system.node("host0"), SupernodeHost)
    node_id = fabric.lease_memory("host0", 1 << 30)
    assert node_id in fabric.hosts["host0"].leased_nodes


def test_supernode_hosts_resolve_with_fabric_declared_first():
    topo = Topology(
        name="fabric-first",
        nodes=(
            NodeSpec("fabric", "supernode.fabric", {}),
            NodeSpec("host0", "supernode.host"),
            NodeSpec("host1", "supernode.host"),
        ),
    )
    system = SystemBuilder(fpga_system()).build(topo)
    assert isinstance(system.node("host0"), SupernodeHost)
    assert isinstance(system.node("host1"), SupernodeHost)

    misnamed = Topology(
        name="misnamed",
        nodes=(
            NodeSpec("fabric", "supernode.fabric", {}),
            NodeSpec("hostA", "supernode.host"),
        ),
    )
    with pytest.raises(ValueError, match="host0"):
        SystemBuilder(fpga_system()).build(misnamed)


def test_fanout_topology_scales_node_count():
    topo = fanout_topology(3)
    assert len(topo.by_kind("cxl.type1")) == 3
    assert len(topo.by_kind("lsu")) == 3
    system = SystemBuilder(fpga_system()).build(topo)
    assert system.node("lsu2").dcoh is system.node("dev2").dcoh
