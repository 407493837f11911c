"""Tests for supernode composition: leasing, routing, coherence."""

import gc
import weakref

import pytest

from repro.config import asic_system
from repro.core.supernode import HostDownError, Supernode
from repro.kernel.fabric import ResourceError
from repro.kernel.numa import NodeKind
from repro.system import SystemBuilder, resolve_topology


def build(hosts=2, fabric_gb=4):
    return Supernode(
        asic_system(),
        hosts=hosts,
        fabric_memory_bytes=fabric_gb << 30,
        memory_granule=1 << 30,
    )


def test_lease_extends_capacity():
    node = build()
    before = node.total_capacity_bytes("host0")
    leased = node.lease_memory("host0", 1 << 29)
    after = node.total_capacity_bytes("host0")
    assert after == before + (1 << 30)
    numa_node = node.hosts["host0"].numa.node(leased)
    assert numa_node.kind is NodeKind.MEMORY_ONLY


def test_leases_are_exclusive():
    node = build(fabric_gb=2)
    node.lease_memory("host0", 1 << 30)
    node.lease_memory("host1", 1 << 30)
    with pytest.raises(ResourceError):
        node.lease_memory("host0", 1 << 30)
    assert node.free_fabric_bytes == 0


def test_release_returns_granule():
    node = build(fabric_gb=1)
    leased = node.lease_memory("host0", 1 << 29)
    node.release_memory("host0", leased)
    assert node.free_fabric_bytes == 1 << 30
    # Another host can now take it.
    node.lease_memory("host1", 1 << 29)


def test_release_unmaps_the_granule_from_the_host():
    node = Supernode(asic_system(), hosts=2, fabric_memory_bytes=1 << 30)
    before = node.total_capacity_bytes("host0")
    leased = node.lease_memory("host0", 1 << 29)
    node.release_memory("host0", leased)
    assert node.total_capacity_bytes("host0") == before
    assert [n.node_id for n in node.hosts["host0"].numa.nodes] == [0]
    # The granule goes to host1; no two hosts may map it, or host0's
    # first-touch allocations could hand out host1's frames.
    node.lease_memory("host1", 1 << 29)
    base = Supernode.FABRIC_BASE
    fabric_ranges = [
        (n.region.start, n.region.end)
        for host in node.hosts.values()
        for n in host.numa.nodes
        if n.region.start >= base
    ]
    assert fabric_ranges == [(base, base + (1 << 30))]


def test_release_with_allocations_refused():
    node = build(fabric_gb=1)
    leased = node.lease_memory("host0", 1 << 29)
    node.hosts["host0"].numa.node(leased).alloc_frame()
    with pytest.raises(ResourceError):
        node.release_memory("host0", leased)


def test_release_foreign_lease_refused():
    node = build(fabric_gb=1)
    leased = node.lease_memory("host0", 1 << 29)
    with pytest.raises(ResourceError):
        node.release_memory("host1", leased)


def test_coherent_access_pays_fabric_once():
    node = build()
    first = node.coherent_access("host0", 0x1000)
    again = node.coherent_access("host0", 0x1000)
    assert first > 0        # global-agent round trip over the fabric
    assert again == 0       # local agent replica
    assert node.hosts["host0"].remote_accesses == 1


def test_cross_host_writer_invalidates_reader():
    node = build()
    node.coherent_access("host0", 0x2000)
    node.coherent_access("host1", 0x2000, exclusive=True)
    # host0 lost its replica: the next access goes remote again.
    assert node.coherent_access("host0", 0x2000) > 0


def test_fabric_latency_includes_two_switch_hops():
    node = build()
    latency = node.coherent_access("host0", 0x3000)
    # leaf -> root (fabric endpoint lives at the root): 2 switches each
    # way at 70 ns.
    assert latency == 2 * 2 * 70_000


def test_misses_count_packets_on_the_host_route_only():
    node = build(hosts=3)
    misses = 5
    for i in range(misses):
        assert node.coherent_access("host1", 0x10_000 + i * 64) > 0
    assert node.coherent_access("host1", 0x10_000) == 0  # local hit: no packet
    routed = {
        name: node.fabric.switch(name).packets_routed
        for name in node.fabric.switches
    }
    assert routed == {"leaf0": 0, "leaf1": misses, "leaf2": 0, "root": misses}


def test_without_fabric_memory_misses_route_to_the_last_host():
    node = build(hosts=2, fabric_gb=0)
    assert node.coherent_access("host0", 0x1000) == 2 * 3 * 70_000  # leaf0-root-leaf1
    assert node.coherent_access("host1", 0x2000) == 2 * 70_000       # leaf1 only
    assert node.fabric.switch("leaf1").packets_routed == 2


def test_fork_counts_accesses_on_its_own_hosts_and_switches():
    topology = resolve_topology("supernode(4)")
    system = SystemBuilder(asic_system()).build(topology)
    assert system.topology.name == "supernode-4host"
    fabric = topology.by_kind("supernode.fabric")[0].name
    original = system.node(fabric)
    assert original.coherent_access("host0", 0x1000) > 0  # state the fork inherits
    forked = system.fork()
    fork = forked.node(fabric)

    latency = fork.coherent_access("host1", 0x2000, exclusive=True)
    assert latency > 0
    assert fork.coherent_access("host1", 0x2000) == 0
    assert fork.coherent_access("host0", 0x1000) == 0  # inherited replica
    host1 = fork.hosts["host1"]
    assert forked.node("host1") is host1
    assert (host1.remote_accesses, host1.remote_latency_ps) == (1, latency)
    assert fork.domain.locals[1].local_hits == 1
    routed = {
        name: fork.fabric.switch(name).packets_routed for name in fork.fabric.switches
    }
    assert routed == {"leaf0": 1, "leaf1": 1, "leaf2": 0, "leaf3": 0, "root": 2}
    fork.set_host_available("host2", False)
    with pytest.raises(HostDownError):
        fork.coherent_access("host2", 0x3000)
    assert fork.hosts["host2"].naks == 1

    # The original saw none of it.
    assert original.hosts["host1"].remote_accesses == 0
    assert original.domain.locals[1].local_hits == 0
    assert original.domain.locals[0].local_hits == 0
    assert original.fabric.switch("leaf1").packets_routed == 0
    assert original.fabric.switch("root").packets_routed == 1
    assert original.coherent_access("host2", 0x3000) > 0
    assert original.hosts["host2"].naks == 0


def test_one_batched_call_books_like_one_call_per_op():
    ops = [(i % 3, 0x1000 + (i * 7 % 5) * 64 + i % 3, i % 4 == 0) for i in range(60)]
    per_op, batched = build(hosts=3), build(hosts=3)
    names = list(per_op.hosts)  # child order
    for child, addr, exclusive in ops:
        per_op.coherent_access(names[child], addr, exclusive)
    batched.access_many(*(list(column) for column in zip(*ops)))

    def booked(node):
        hosts = [(h.remote_accesses, h.remote_latency_ps) for h in node.hosts.values()]
        routed = {n: node.fabric.switch(n).packets_routed for n in node.fabric.switches}
        return hosts, routed, vars(node.domain)

    assert booked(batched) == booked(per_op)
    assert sum(per_op.domain.global_requests) > 0


def test_a_down_host_naks_a_batch_before_it_runs():
    node = build()
    node.set_host_available("host1", False)
    with pytest.raises(HostDownError):
        node.access_many([0], [0x1000], [False])
    assert node.hosts["host1"].naks == 1
    assert node.domain.global_requests == [0, 0]
    assert node.hosts["host0"].remote_accesses == 0


def test_dropped_supernode_frees_its_domain_without_gc():
    # No reference cycle: the coherence domain (line states, replica
    # sets) goes with the last reference, not at the next full collection.
    gc.disable()
    try:
        node = build()
        node.coherent_access("host0", 0x2000)
        node.coherent_access("host1", 0x2000, exclusive=True)
        domain = weakref.ref(node.domain)
        del node
        assert domain() is None
    finally:
        gc.enable()


def test_utilization_view():
    node = build()
    node.lease_memory("host1", 1 << 29)
    holdings = node.utilization()
    assert holdings["host1"] == ["fam0"]
    assert holdings["host0"] == []


def test_invalid_host_count():
    with pytest.raises(ValueError):
        Supernode(asic_system(), hosts=0)
