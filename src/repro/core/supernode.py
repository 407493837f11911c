"""Multi-host supernodes over a CXL switch fabric (§VIII direction).

A :class:`Supernode` composes several hosts and a pool of
fabric-attached memory behind CXL switches:

* the fabric manager leases memory ranges to hosts on demand; a leased
  range shows up as a new CPU-less NUMA node in that host's registry,
  so ordinary first-touch allocation can spill into it;
* cross-host sharing goes through the two-level coherence domain
  (local agent per host, one global agent), and every global
  transaction pays the measured switch-fabric latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.cache.hierarchy import HierarchicalDomain
from repro.config.system import SystemConfig
from repro.cxl.switch import CxlSwitch, SwitchFabric
from repro.kernel.fabric import FabricManager, ResourceError
from repro.kernel.numa import NodeKind, NumaNode, NumaRegistry
from repro.mem.address import AddressRange


class HostDownError(RuntimeError):
    """A coherent access targeted a host that is NAKing (marked down).

    The supernode's fail-loud path: the fault layer marks hosts
    unavailable (:meth:`Supernode.set_host_available`) and every
    coherent access against a down host raises this — degraded-mode
    callers catch it and retry-with-backoff instead.
    """


@dataclass
class SupernodeHost:
    """One child host of the supernode."""

    name: str
    numa: NumaRegistry
    leased_nodes: List[int] = field(default_factory=list)
    remote_accesses: int = 0
    remote_latency_ps: int = 0
    available: bool = True
    naks: int = 0


def make_supernode_host(config: SystemConfig, name: str) -> SupernodeHost:
    """Build one child host: a NUMA registry seeded with its local DRAM.

    This is the per-host construction unit — the ``supernode.host``
    component factory calls it for each host node of a topology, and
    :class:`Supernode` calls it when composed directly, so both paths
    produce identical hosts.
    """
    registry = NumaRegistry()
    registry.add(
        NumaNode(
            0,
            NodeKind.CPU,
            AddressRange(0, config.host.dram_size, f"{name}-dram"),
        )
    )
    return SupernodeHost(name, registry)


class Supernode:
    """Hosts + fabric-attached memory + hierarchical coherence."""

    FABRIC_BASE = 0x100_0000_0000

    def __init__(
        self,
        config: SystemConfig,
        hosts: int = 2,
        fabric_memory_bytes: int = 4 << 30,
        memory_granule: int = 1 << 30,
        switch_traversal_ps: int = 70_000,
        prebuilt_hosts: Optional[List[SupernodeHost]] = None,
        root_ports: int = 8,
    ) -> None:
        if prebuilt_hosts is not None:
            host_list = list(prebuilt_hosts)
            names = [host.name for host in host_list]
            if len(set(names)) != len(names):
                raise ValueError(f"duplicate supernode host names: {names}")
        else:
            if hosts <= 0:
                raise ValueError("a supernode needs at least one host")
            host_list = [make_supernode_host(config, f"host{i}") for i in range(hosts)]
        if not host_list:
            raise ValueError("a supernode needs at least one host")
        self.config = config
        self.fabric = SwitchFabric()
        root = self.fabric.add_switch(
            CxlSwitch("root", switch_traversal_ps, ports=root_ports)
        )
        self.manager = FabricManager("supernode-fm")

        self.hosts: Dict[str, SupernodeHost] = {}
        for i, host in enumerate(host_list):
            leaf = self.fabric.add_switch(CxlSwitch(f"leaf{i}", switch_traversal_ps))
            root.attach_switch(leaf)
            leaf.attach_endpoint(host.name)
            self.hosts[host.name] = host

        # Carve the fabric-attached memory pool into leasable granules.
        cursor = self.FABRIC_BASE
        index = 0
        while cursor + memory_granule <= self.FABRIC_BASE + fabric_memory_bytes:
            region = AddressRange(cursor, cursor + memory_granule, f"fam{index}")
            self.manager.add_memory(f"fam{index}", region)
            root.attach_endpoint(f"fam{index}")
            cursor += memory_granule
            index += 1

        self.domain = HierarchicalDomain(children=len(host_list))
        #: Host name -> its child index in the domain (construction order).
        self._child_of = {host.name: i for i, host in enumerate(host_list)}

        # Every miss travels to the same fabric endpoint (the first pool
        # granule; with no fabric memory, the last host's leaf), so each
        # host's route is worked out once.  One entry per host, in child
        # order, holds all a coherent access reads: (host, child index,
        # round-trip ps, switches).
        endpoints = root.endpoints
        endpoint = endpoints[0] if endpoints else sorted(self.hosts)[-1]
        self._host_routes: Dict[
            str, Tuple[SupernodeHost, int, int, Tuple[CxlSwitch, ...]]
        ] = {}
        for name, host in self.hosts.items():
            path = tuple(
                self.fabric.switch(switch)
                for switch in self.fabric.route(name, endpoint)
            )
            latency = 2 * sum(s.traversal_ps for s in path)
            self._host_routes[name] = (host, self._child_of[name], latency, path)

    @classmethod
    def from_hosts(
        cls,
        config: SystemConfig,
        hosts: List[SupernodeHost],
        fabric_memory_bytes: int = 4 << 30,
        memory_granule: int = 1 << 30,
        switch_traversal_ps: int = 70_000,
        root_ports: int = 8,
    ) -> "Supernode":
        """Wire a supernode around hosts that were built individually.

        The system-builder path: each ``supernode.host`` topology node
        becomes a :class:`SupernodeHost` via :func:`make_supernode_host`,
        and the ``supernode.fabric`` node assembles them — instead of
        this class fabricating its own hosts wholesale.
        """
        return cls(
            config,
            fabric_memory_bytes=fabric_memory_bytes,
            memory_granule=memory_granule,
            switch_traversal_ps=switch_traversal_ps,
            prebuilt_hosts=hosts,
            root_ports=root_ports,
        )

    # ------------------------------------------------------------------
    # Memory leasing
    # ------------------------------------------------------------------
    def lease_memory(self, host: str, min_bytes: int) -> int:
        """Lease a fabric granule to ``host``; returns the new node id."""
        entry = self.hosts[host]
        resource = self.manager.allocate_memory(host, min_bytes)
        node_id = max(n.node_id for n in entry.numa.nodes) + 1
        entry.numa.add(
            NumaNode(node_id, NodeKind.MEMORY_ONLY, resource.region, resource.name)
        )
        entry.leased_nodes.append(node_id)
        return node_id

    def release_memory(self, host: str, node_id: int) -> None:
        entry = self.hosts[host]
        if node_id not in entry.leased_nodes:
            raise ResourceError(f"{host} holds no lease on node {node_id}")
        node = entry.numa.node(node_id)
        if node.allocated_frames:
            raise ResourceError(
                f"node {node_id} still has {node.allocated_frames} frames allocated"
            )
        self.manager.release(node.name)
        entry.numa.remove(node_id)
        entry.leased_nodes.remove(node_id)

    def total_capacity_bytes(self, host: str) -> int:
        return sum(n.region.size for n in self.hosts[host].numa.nodes)

    # ------------------------------------------------------------------
    # Cross-host coherent access
    # ------------------------------------------------------------------
    def set_host_available(self, host: str, available: bool) -> None:
        """Mark a host up/down; down hosts NAK coherent accesses.

        The hook the fault layer drives
        (:meth:`repro.faults.controller.FaultController.apply_supernode`)
        — the supernode itself stays fault-agnostic.
        """
        self.hosts[host].available = available

    def coherent_access(self, host: str, addr: int, exclusive: bool = False) -> int:
        """One access from ``host``; returns the fabric latency paid (ps).

        Local-agent hits are free of fabric traffic; misses consult the
        global agent at the root switch.  A host marked unavailable
        NAKs: the access raises :class:`HostDownError` (and counts
        against the host) without touching the coherence domain.
        """
        entry, child, latency, path = self._host_routes[host]
        if not entry.available:
            self._nak(entry)
        requests = self.domain.global_requests
        before = requests[child]
        self.domain.access_many((child,), (addr,), (exclusive,))
        if requests[child] == before:
            return 0
        for switch in path:
            switch.packets_routed += 1
        entry.remote_accesses += 1
        entry.remote_latency_ps += latency
        return latency

    def access_many(
        self, children: Iterable[int], addrs: Iterable[int], exclusive: Iterable[bool]
    ) -> None:
        """Run a stream of coherent accesses in one call.

        ``children[k]`` is the issuing host's child index (``_child_of``).
        Each host's misses in the stream book its remote accesses and
        latency, and the packets on its route.  Every host must be up: a
        down one NAKs the whole stream before it runs.
        """
        routes = self._host_routes.values()
        for entry, _child, _latency, _path in routes:
            if not entry.available:
                self._nak(entry)
        requests = self.domain.global_requests
        before = list(requests)
        self.domain.access_many(children, addrs, exclusive)
        for (entry, child, latency, path), start in zip(routes, before):
            misses = requests[child] - start
            for switch in path:
                switch.packets_routed += misses
            entry.remote_accesses += misses
            entry.remote_latency_ps += misses * latency

    @staticmethod
    def _nak(entry: SupernodeHost) -> None:
        entry.naks += 1
        raise HostDownError(
            f"supernode host {entry.name!r} is down: coherent access NAKed "
            f"({entry.naks} so far)"
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def utilization(self) -> Dict[str, List[str]]:
        return {host: self.manager.holdings(host) for host in self.hosts}

    @property
    def free_fabric_bytes(self) -> int:
        return self.manager.free_memory_bytes


from repro.system.registry import register_component  # noqa: E402


@register_component("supernode.host")
def _build_supernode_host(builder, system, spec) -> SupernodeHost:
    """Builder factory: one child host, constructed per-host.

    If the ``supernode.fabric`` node was declared (and therefore built)
    earlier, resolve against its already-wired hosts; otherwise build a
    fresh :class:`SupernodeHost` that the fabric factory will collect.
    """
    for fabric_spec in system.topology.by_kind("supernode.fabric"):
        fabric = system.nodes.get(fabric_spec.name)
        if isinstance(fabric, Supernode):
            try:
                return fabric.hosts[spec.name]
            except KeyError:
                raise ValueError(
                    f"supernode host nodes must be named host0..host"
                    f"{len(fabric.hosts) - 1}; got {spec.name!r}"
                ) from None
    return make_supernode_host(system.config, spec.name)


@register_component("supernode.fabric")
def _build_supernode_fabric(builder, system, spec) -> Supernode:
    """Builder factory: the switch fabric wired around per-host systems.

    Collects every ``supernode.host`` node — the ones declared before
    this spec were already built individually by the host factory; any
    declared after are built here and back-filled — and wires one
    :class:`Supernode` around them via :meth:`Supernode.from_hosts`.
    Host nodes must be named ``host0..hostN-1`` (the
    :func:`repro.system.topology.supernode_topology` convention, which
    the fabric's leaf-switch indexing relies on).
    """
    host_specs = system.topology.by_kind("supernode.host")
    if not host_specs:
        raise ValueError(
            f"topology {system.topology.name!r}: supernode.fabric needs "
            "at least one supernode.host node"
        )
    expected = {f"host{i}" for i in range(len(host_specs))}
    for host_spec in host_specs:
        if host_spec.name not in expected:
            raise ValueError(
                f"supernode host nodes must be named host0..host{len(host_specs) - 1}; "
                f"got {host_spec.name!r}"
            )
    hosts: List[SupernodeHost] = []
    # Leaf switches attach in name order (host0 -> leaf0, ...) no matter
    # how the topology interleaves its declarations.
    for name in sorted(expected, key=lambda n: int(n[len("host"):])):
        host = system.nodes.get(name)
        if not isinstance(host, SupernodeHost):
            host = make_supernode_host(system.config, name)
            system.nodes[name] = host  # fabric declared first: back-fill
        hosts.append(host)
    return Supernode.from_hosts(
        system.config,
        hosts,
        fabric_memory_bytes=int(spec.params.get("fabric_memory_bytes", 4 << 30)),
        memory_granule=int(spec.params.get("memory_granule", 1 << 30)),
        switch_traversal_ps=int(spec.params.get("switch_traversal_ps", 70_000)),
        root_ports=int(spec.params.get("root_ports", 8)),
    )
