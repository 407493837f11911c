"""Pre-build validation of a topology against a system configuration.

A topology can be perfectly well-formed as a *graph* (every schema
check in :meth:`Topology.from_dict` passes) and still be unbuildable or
physically nonsensical against a given :class:`SystemConfig` — more
flexbus ports than the host exposes, HDM windows that overflow the
host's decode capacity, a fabric lease granule larger than the pool it
carves.  :func:`validate_topology_config` checks those *resource*
constraints up-front, so ``SystemBuilder.build`` fails with one
listing-style report before any component is constructed, matching the
:class:`~repro.config.UnknownProfileError` /
:class:`~repro.system.topology.UnknownTopologyError` convention of
always enumerating what is wrong.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List

from repro.config.system import SystemConfig
from repro.system.topology import Topology


class TopologyConfigError(ValueError):
    """A topology cannot run against this configuration.

    The message lists *every* violation (port budgets, HDM capacity,
    fabric granules), one per line, so a spec author fixes the layout
    in one pass instead of replaying build failures.
    """


#: Link-endpoint budget per component kind: how many fabric ports each
#: block exposes.  A node may widen its own budget with a ``"ports"``
#: param (e.g. a switch-rich host), so the table encodes defaults, not
#: hard silicon limits.  Kinds absent here are unconstrained.
DEFAULT_PORT_BUDGETS: Dict[str, int] = {
    "host": 16,              # flexbus/PCIe root ports on the socket
    "cxl.type1": 2,          # one host link + one device-side link
    "cxl.type2": 2,
    "lsu": 1,                # drives exactly one device
    "dma": 2,                # host link + optional device-side link
    "supernode.host": 1,     # one leaf-switch port
    "supernode.fabric": 64,  # leaf ports on the switch complex
}

#: Ports on a supernode's root switch (mirrors the CxlSwitch default):
#: one per host leaf switch, one per leasable fabric-memory granule.
ROOT_SWITCH_PORTS = 8


def _port_budget(spec, kind_budgets: Dict[str, int]) -> int:
    override = spec.params.get("ports")
    if override is not None:
        return int(override)
    return kind_budgets.get(spec.kind, -1)  # -1: unconstrained


def hdm_capacity_bytes(config: SystemConfig) -> int:
    """The host's HDM decode budget for device-attached memory.

    Modeling convention: the host can decode at most as much
    host-managed device memory as it has local DRAM (32 GB on the
    calibrated profiles) — HDM windows are carved upward from
    :data:`~repro.system.topology.HDM_BASE` and the directory state
    backing them lives in host DRAM.
    """
    return config.host.dram_size


def validate_topology_config(
    topology: Topology, config: SystemConfig
) -> None:
    """Raise :class:`TopologyConfigError` listing every resource violation.

    Checks, in order:

    * at most one ``host`` complex (the builder wires a single LLC home
      agent);
    * per-node port budgets (:data:`DEFAULT_PORT_BUDGETS`, overridable
      per node via a ``"ports"`` param) against the declared links;
    * total type-2 ``hdm_bytes`` against :func:`hdm_capacity_bytes`
      — and each window individually positive where declared;
    * ``supernode.fabric`` lease granules: positive and no larger than
      the fabric pool.

    Graph-shape errors (duplicate nodes, dangling links) stay with
    :meth:`Topology.validate`; this pass only judges the topology
    against ``config``'s resources.
    """
    problems: List[str] = []

    hosts = topology.by_kind("host")
    if len(hosts) > 1:
        problems.append(
            f"declares {len(hosts)} 'host' complexes "
            f"({', '.join(spec.name for spec in hosts)}); the builder "
            "wires exactly one LLC home agent"
        )

    # One pass over the links gives every node's port count; this runs
    # on every build, so it must stay O(nodes + links).
    ports_used: Counter = Counter()
    for link in topology.links:
        ports_used[link.a] += 1
        ports_used[link.b] += 1
    for spec in topology.nodes:
        budget = _port_budget(spec, DEFAULT_PORT_BUDGETS)
        if budget < 0:
            continue
        ports = ports_used.get(spec.name, 0)
        if ports > budget:
            problems.append(
                f"node {spec.name!r} ({spec.kind}) uses {ports} link ports "
                f"but budgets {budget} (override with a 'ports' param)"
            )

    capacity = hdm_capacity_bytes(config)
    hdm_total = 0
    for spec in topology.by_kind("cxl.type2"):
        declared = spec.params.get("hdm_bytes", 0)
        try:
            declared = int(declared)
        except (TypeError, ValueError):
            problems.append(
                f"node {spec.name!r} (cxl.type2): hdm_bytes must be an "
                f"integer, got {spec.params.get('hdm_bytes')!r}"
            )
            continue
        if declared <= 0:
            problems.append(
                f"node {spec.name!r} (cxl.type2) needs a positive hdm_bytes "
                f"(got {declared})"
            )
        hdm_total += max(declared, 0)
    if hdm_total > capacity:
        problems.append(
            f"total HDM demand {hdm_total} bytes exceeds the host's decode "
            f"capacity {capacity} bytes (config {config.name!r})"
        )

    for spec in topology.by_kind("supernode.fabric"):
        pool = int(spec.params.get("fabric_memory_bytes", 4 << 30))
        granule = int(spec.params.get("memory_granule", 1 << 30))
        if granule <= 0:
            problems.append(
                f"node {spec.name!r} (supernode.fabric) needs a positive "
                f"memory_granule (got {granule})"
            )
            continue
        if granule > pool:
            problems.append(
                f"node {spec.name!r} (supernode.fabric): memory_granule "
                f"{granule} exceeds the fabric pool of {pool} bytes"
            )
            continue
        # The root switch fronts one port per leaf (host) plus one per
        # leasable granule; an over-granulated pool runs it out of
        # ports mid-build (CxlSwitch defaults to 8).
        granules = pool // granule
        host_count = len(topology.by_kind("supernode.host"))
        root_ports = int(spec.params.get("root_ports", ROOT_SWITCH_PORTS))
        if granules + host_count > root_ports:
            problems.append(
                f"node {spec.name!r} (supernode.fabric): {granules} "
                f"granules + {host_count} host leaves need "
                f"{granules + host_count} root-switch ports but only "
                f"{root_ports} exist (raise memory_granule or shrink "
                "the pool)"
            )

    if problems:
        raise TopologyConfigError(
            f"topology {topology.name!r} cannot run against config "
            f"{config.name!r}:\n  - " + "\n  - ".join(problems)
        )
