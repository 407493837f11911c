"""Parity suite for data-driven topologies.

Locks down the JSON topology format: every registered topology must
survive ``to_dict -> dump -> load -> from_dict`` bit-identically, and a
system built from the reloaded spec must *measure* the same as one
built from the in-code registration.  Also pins the builder-constructed
Supernode (per-host systems assembled by ``supernode.fabric``) against
the monolithic construction path it replaced.
"""

import json

import pytest

from cli_helpers import run_cli

from repro.config import asic_system, fpga_system
from repro.core.supernode import Supernode, SupernodeHost, make_supernode_host
from repro.harness.topology_experiments import fanout_scaling, topology_scaling
from repro.rao.circustent import make_workload
from repro.system import (
    SHIPPED_TOPOLOGY_DIR,
    TOPOLOGIES,
    SystemBuilder,
    Topology,
    TopologySchemaError,
    dump_topology,
    load_topology,
    resolve_topology,
    topology_by_name,
)


# ----------------------- dump/load round trips ------------------------
@pytest.mark.parametrize("name", TOPOLOGIES.names())
def test_registered_topology_json_roundtrip(name, tmp_path):
    topology = topology_by_name(name)
    path = tmp_path / f"{name}.json"
    dump_topology(topology, path)
    reloaded = load_topology(path)
    assert reloaded == topology
    assert reloaded.to_dict() == topology.to_dict()


@pytest.mark.parametrize("name", TOPOLOGIES.names())
def test_reloaded_topology_builds_identical_structure(name, tmp_path):
    path = tmp_path / f"{name}.json"
    dump_topology(topology_by_name(name), path)
    built_code = SystemBuilder(fpga_system()).build(name)
    built_json = SystemBuilder(fpga_system()).build(load_topology(path))
    assert set(built_code.nodes) == set(built_json.nodes)
    for node_name in built_code.nodes:
        assert type(built_code.nodes[node_name]) is type(built_json.nodes[node_name])


# ----------------------- measurement parity ---------------------------
def _microbench_latency(system):
    lsu = system.node("lsu")
    addrs = lsu.sequential_lines(0x200000, 32)
    for addr in addrs:
        system.llc.flush(addr)
    return lsu.run_latency(addrs).latencies.samples


def test_microbench_measures_identical_from_json(tmp_path):
    path = tmp_path / "microbench.json"
    dump_topology(topology_by_name("microbench"), path)
    direct = _microbench_latency(SystemBuilder(fpga_system()).build("microbench"))
    reloaded = _microbench_latency(
        SystemBuilder(fpga_system()).build(load_topology(path))
    )
    assert reloaded == direct


def test_rao_nic_measures_identical_from_json(tmp_path):
    path = tmp_path / "rao-cxl.json"
    dump_topology(topology_by_name("rao-cxl"), path)
    workload = make_workload("STRIDE1", ops=128, table_bytes=1 << 30, seed=7)

    runs = []
    for topology in ("rao-cxl", load_topology(path)):
        nic = SystemBuilder(asic_system()).build(topology).node("cxl-nic")
        nic.warm()
        runs.append(nic.run(workload.requests))
    assert runs[1].elapsed_ps == runs[0].elapsed_ps
    assert runs[1].throughput_mops == runs[0].throughput_mops


def test_topo_scale_family_matches_legacy_fanout():
    via_family = topology_scaling(
        topology="fanout(2)", count=8, trials=2, bw_count=128
    )
    legacy = fanout_scaling(2, count=8, trials=2, bw_count=128)
    assert via_family.series == legacy.series


def test_topo_scale_runs_json_shipped_layout():
    result = topology_scaling(topology="fanout-8", count=4, trials=2, bw_count=64)
    assert set(result.series["bandwidth_gbps"]) == {
        *(f"dev{i}" for i in range(8)), "all"
    }


def test_topo_scale_rejects_lsu_free_topology():
    with pytest.raises(ValueError, match="lsu"):
        topology_scaling(topology="rpc")


# ----------------------- supernode via builder ------------------------
def _supernode_fingerprint(supernode):
    trace = [
        supernode.coherent_access("host0", 0x1000),
        supernode.coherent_access("host0", 0x1000),
        supernode.coherent_access("host1", 0x1000, exclusive=True),
        supernode.coherent_access("host0", 0x1000),
        supernode.coherent_access("host1", 0x2000),
    ]
    leased = supernode.lease_memory("host0", 1 << 29)
    return {
        "trace": trace,
        "remote": {
            name: (host.remote_accesses, host.remote_latency_ps)
            for name, host in supernode.hosts.items()
        },
        "leased": leased,
        "capacity": supernode.total_capacity_bytes("host0"),
        "free": supernode.free_fabric_bytes,
        "util": supernode.utilization(),
    }


def test_builder_supernode_matches_monolithic_construction():
    direct = Supernode(fpga_system(), hosts=2)
    built = SystemBuilder(fpga_system()).build("supernode-2host").node("fabric")
    assert _supernode_fingerprint(built) == _supernode_fingerprint(direct)


def test_builder_supernode_matches_from_json(tmp_path):
    path = tmp_path / "supernode.json"
    dump_topology(topology_by_name("supernode-2host"), path)
    system = SystemBuilder(fpga_system()).build(load_topology(path))
    fabric = system.node("fabric")
    direct = Supernode(fpga_system(), hosts=2)
    assert _supernode_fingerprint(fabric) == _supernode_fingerprint(direct)


def test_builder_supernode_hosts_are_the_fabric_hosts():
    system = SystemBuilder(fpga_system()).build("supernode-2host")
    fabric = system.node("fabric")
    for name in ("host0", "host1"):
        assert system.node(name) is fabric.hosts[name]


def test_make_supernode_host_is_the_per_host_unit():
    host = make_supernode_host(fpga_system(), "host7")
    assert isinstance(host, SupernodeHost)
    assert host.numa.node(0).region.size == fpga_system().host.dram_size


# ----------------------- shipped JSON layouts -------------------------
def test_shipped_layout_dir_exists_and_is_nonempty():
    assert SHIPPED_TOPOLOGY_DIR.is_dir()
    assert list(SHIPPED_TOPOLOGY_DIR.glob("*.json"))


@pytest.mark.parametrize(
    "path", sorted(SHIPPED_TOPOLOGY_DIR.glob("*.json")), ids=lambda p: p.stem
)
def test_shipped_layouts_validate_register_and_build(path):
    topology = load_topology(path)  # schema-validates, including kinds
    assert topology.name in TOPOLOGIES.names()  # auto-registered at import
    system = SystemBuilder(fpga_system()).build(topology.name)
    assert set(system.nodes) == {n.name for n in topology.nodes}


def test_shipped_fanout8_matches_the_family_layout():
    """Drift guard: the hand-written JSON must stay structurally equal
    to fanout_topology(8) (only the description may differ), so the
    registered name and the family ref always build the same system."""
    from repro.system import fanout_topology

    shipped = load_topology(SHIPPED_TOPOLOGY_DIR / "fanout-8.json")
    generated = fanout_topology(8)
    assert shipped.nodes == generated.nodes
    assert shipped.links == generated.links
    assert shipped.name == generated.name


def test_shipped_supernode4_matches_the_family_layout():
    from repro.system import supernode_topology

    shipped = load_topology(SHIPPED_TOPOLOGY_DIR / "supernode-4host.json")
    generated = supernode_topology(4, fabric_memory_bytes=4 << 30)
    assert shipped.nodes == generated.nodes
    assert shipped.links == generated.links
    assert shipped.name == generated.name


# ----------------------- resolve_topology -----------------------------
def test_resolve_topology_passes_instances_through():
    topology = topology_by_name("microbench")
    assert resolve_topology(topology) is topology
    with pytest.raises(TypeError):
        resolve_topology(topology, seed=7)


def test_resolve_topology_forwards_family_overrides():
    assert len(resolve_topology("fanout(3)", seed=9).by_kind("cxl.type1")) == 3
    assert resolve_topology("supernode(3)").by_kind("supernode.host")


# ------------------- multi-argument family refs -----------------------
def test_supernode_family_takes_hosts_and_granule():
    topology = resolve_topology(
        "supernode(3, 536870912)", fabric_memory_bytes=1 << 30
    )
    assert len(topology.by_kind("supernode.host")) == 3
    fabric = topology.by_kind("supernode.fabric")[0]
    assert fabric.params["memory_granule"] == 536870912
    # The smaller granule carves finer leasable chunks from the pool.
    system = SystemBuilder(fpga_system()).build(topology)
    supernode = system.node("fabric")
    assert supernode.free_fabric_bytes == 1 << 30
    assert len(supernode.manager.holdings("host0")) == 0
    supernode.lease_memory("host0", 1 << 20)
    assert supernode.free_fabric_bytes == (1 << 30) - (512 << 20)


def test_builder_rejects_over_granulated_fabric_pools():
    from repro.system import TopologyConfigError

    topology = resolve_topology("supernode(2, 268435456)")  # 16 granules
    with pytest.raises(TopologyConfigError, match="root-switch ports"):
        SystemBuilder(fpga_system()).build(topology)


def test_root_ports_param_forwards_to_the_built_switch():
    from repro.system.topology import NodeSpec, supernode_topology

    base = supernode_topology(2, memory_granule=256 << 20)  # 16 granules
    fabric = base.node("fabric")
    widened = Topology(
        base.name,
        base.description,
        nodes=tuple(
            NodeSpec("fabric", "supernode.fabric",
                     dict(fabric.params, root_ports=32))
            if spec.name == "fabric" else spec
            for spec in base.nodes
        ),
        links=base.links,
    )
    # Validation accepts the widened budget AND the build honors it.
    system = SystemBuilder(fpga_system()).build(widened)
    supernode = system.node("fabric")
    assert len(supernode.fabric.switch("root").endpoints) == 16


def test_non_integral_family_args_raise_schema_error():
    with pytest.raises(TopologySchemaError, match="must be an integer"):
        resolve_topology("fanout(1.5)")
    with pytest.raises(TopologySchemaError, match="must be an integer"):
        resolve_topology("supernode(2, 0.5)")


# ------------------- inline specs as sweep values ---------------------
def _inline_spec():
    return topology_by_name("fanout-2").to_dict()


def test_resolve_topology_accepts_inline_specs():
    topology = resolve_topology(_inline_spec())
    assert topology == topology_by_name("fanout-2")
    with pytest.raises(TypeError):
        resolve_topology(_inline_spec(), seed=7)


def test_sweep_grids_accept_inline_topology_specs():
    from repro.experiments.spec import SweepSpec

    sweep = SweepSpec.from_dict(
        {
            "name": "inline",
            "experiments": [
                {
                    "experiment": "topo-scale",
                    "grid": {"topology": [_inline_spec(), "fanout(3)"]},
                }
            ],
        }
    )
    sweep.validate()
    specs = sweep.expand()
    assert len(specs) == 2
    # Inline specs content-hash like any other param value.
    assert len({spec.spec_hash for spec in specs}) == 2


def test_sweep_rejects_malformed_inline_topology_specs():
    from repro.experiments.spec import SpecError, SweepSpec

    bad = _inline_spec()
    bad["links"].append({"a": "host", "b": "ghost"})
    sweep = SweepSpec.from_dict(
        {
            "name": "inline-bad",
            "experiments": [
                {"experiment": "topo-scale", "grid": {"topology": [bad]}}
            ],
        }
    )
    with pytest.raises(SpecError, match="ghost"):
        sweep.validate()


def test_topology_scaling_runs_an_inline_spec():
    from repro.harness.topology_experiments import topology_scaling

    inline = topology_scaling(topology=_inline_spec(), count=2, trials=1, bw_count=16)
    named = topology_scaling(topology="fanout-2", count=2, trials=1, bw_count=16)
    assert inline.series == named.series


# ------------------- pre-build config validation ----------------------
def test_builder_rejects_over_budget_ports():
    from repro.system import TopologyConfigError
    from repro.system.topology import LinkSpec, NodeSpec

    nodes = [NodeSpec("host", "host")]
    links = []
    for i in range(17):  # host budgets 16 flexbus/PCIe ports
        nodes.append(NodeSpec(f"dev{i}", "cxl.type1"))
        links.append(LinkSpec(f"dev{i}", "host", "cxl.flexbus"))
    topology = Topology("too-wide", nodes=tuple(nodes), links=tuple(links))
    with pytest.raises(TopologyConfigError, match="16"):
        SystemBuilder(fpga_system()).build(topology)


def test_ports_param_widens_the_budget():
    from repro.system.topology import LinkSpec, NodeSpec

    nodes = [NodeSpec("host", "host", {"ports": 32})]
    links = []
    for i in range(17):
        nodes.append(NodeSpec(f"dev{i}", "cxl.type1"))
        links.append(LinkSpec(f"dev{i}", "host", "cxl.flexbus"))
    topology = Topology("wide-ok", nodes=tuple(nodes), links=tuple(links))
    system = SystemBuilder(fpga_system()).build(topology)
    assert len(system.nodes) == 18


def test_builder_rejects_hdm_overflow_and_lists_every_problem():
    from repro.system import TopologyConfigError, hdm_capacity_bytes
    from repro.system.topology import LinkSpec, NodeSpec

    config = fpga_system()
    capacity = hdm_capacity_bytes(config)
    topology = Topology(
        "hdm-hungry",
        nodes=(
            NodeSpec("host", "host"),
            NodeSpec("xpu0", "cxl.type2", {"hdm_bytes": capacity}),
            NodeSpec("xpu1", "cxl.type2", {"hdm_bytes": capacity}),
            NodeSpec("bad", "cxl.type2", {"hdm_bytes": 0}),
        ),
        links=(
            LinkSpec("xpu0", "host"),
            LinkSpec("xpu1", "host"),
            LinkSpec("bad", "host"),
        ),
    )
    with pytest.raises(TopologyConfigError) as err:
        SystemBuilder(config).build(topology)
    message = str(err.value)
    assert "exceeds the host's decode capacity" in message
    assert "positive hdm_bytes" in message  # both violations listed at once


def test_builder_rejects_bad_fabric_granules():
    from repro.system import TopologyConfigError
    from repro.system.topology import NodeSpec

    topology = Topology(
        "bad-granule",
        nodes=(
            NodeSpec("host0", "supernode.host"),
            NodeSpec(
                "fabric",
                "supernode.fabric",
                {"fabric_memory_bytes": 1 << 30, "memory_granule": 2 << 30},
            ),
        ),
    )
    with pytest.raises(TopologyConfigError, match="memory_granule"):
        SystemBuilder(fpga_system()).build(topology)


def test_every_registered_topology_passes_config_validation():
    from repro.system import validate_topology_config

    for name in TOPOLOGIES.names():
        validate_topology_config(topology_by_name(name), fpga_system())
        validate_topology_config(topology_by_name(name), asic_system())


# ----------------------------- CLI ------------------------------------
def test_cli_dump_validate_load_roundtrip(tmp_path):
    target = tmp_path / "fanout2.json"
    code, out = run_cli("topology", "dump", "fanout-2", "--out", str(target))
    assert code == 0 and "wrote" in out
    assert json.loads(target.read_text())["name"] == "fanout-2"

    code, out = run_cli("topology", "validate", str(target))
    assert code == 0
    assert "ok" in out and "fanout-2" in out

    code, out = run_cli("topology", "load", str(target))
    assert code == 0
    assert "lsu1" in out and "cxl.type1" in out


def test_cli_dump_without_out_prints_json():
    code, out = run_cli("topology", "dump", "microbench")
    assert code == 0
    assert json.loads(out)["name"] == "microbench"


def test_cli_validate_reports_schema_errors(tmp_path):
    bad = tmp_path / "bad.json"
    spec = topology_by_name("microbench").to_dict()
    spec["links"].append({"a": "host", "b": "ghost"})
    bad.write_text(json.dumps(spec))
    good = tmp_path / "good.json"
    dump_topology(topology_by_name("microbench"), good)

    code, out = run_cli("topology", "validate", str(good), str(bad))
    assert code == 2
    assert "ok" in out and "FAIL" in out and "ghost" in out


def test_cli_load_missing_file_is_actionable(tmp_path):
    code, out = run_cli("topology", "load", str(tmp_path / "absent.json"))
    assert code == 2
    assert "cannot read" in out


def test_cli_validate_without_files_errors():
    code, out = run_cli("topology", "validate")
    assert code == 2
    assert "JSON spec" in out


def test_cli_out_is_rejected_outside_dump(tmp_path):
    code, out = run_cli(
        "topology", "show", "fanout-2", "--out", str(tmp_path / "x.json")
    )
    assert code == 2
    assert "only valid" in out
    assert not (tmp_path / "x.json").exists()
