"""Declarative system topologies: named node/link graphs.

A :class:`Topology` is the *shape* of a simulated system — which
components exist (each a :class:`NodeSpec` naming a registered
component kind plus JSON-representable params) and how they connect
(:class:`LinkSpec` edges).  The :class:`~repro.system.builder.SystemBuilder`
turns a topology plus a :class:`~repro.config.system.SystemConfig` into
live components.

Topologies register by name in :data:`TOPOLOGIES`, a
:class:`~repro.system.registry.Registry`, so harnesses, sweep specs and
the CLI (``repro topology list|show``) can refer to a layout with a
plain string.  Registered entries are *factories*: they take positional
reference arguments and keyword overrides (seeds, device counts) and
return a fresh spec.  The parametric families are entries too:
``"fanout(6)"`` scales the device count and ``"supernode(4, 536870912)"``
the host count and lease granule.

Topologies are also a *data format*: :meth:`Topology.to_dict` /
:meth:`Topology.from_dict` round-trip a spec through plain JSON,
:func:`load_topology` / :func:`dump_topology` do the same for files
(``repro topology load|dump|validate``), and every ``*.json`` layout
under ``examples/topologies/`` auto-registers at import so shipped
files are first-class citizens of the registry.  Sweep grids refer to
topologies through :func:`resolve_topology`, which accepts a registered
name or reference, an inline JSON spec, or a :class:`Topology`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro.system.registry import Registry

HDM_BASE = 0x8_0000_0000  # device HDM windows start at 32 GB


class TopologySchemaError(ValueError):
    """A topology spec (dict or JSON file) is malformed.

    Every malformed input — wrong container types, missing/unknown
    keys, duplicate node names, dangling link endpoints, unknown
    component kinds — raises this one type with a message naming the
    offending element, so callers never see a bare ``KeyError``.
    """


class UnknownTopologyError(ValueError):
    """A name/reference does not identify a registered topology.

    The listing-style counterpart of
    :class:`repro.config.UnknownProfileError`: the message always
    enumerates the valid options.
    """


@dataclass(frozen=True)
class NodeSpec:
    """One component instance: a unique name, a registered kind, params."""

    name: str
    kind: str
    params: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class LinkSpec:
    """An edge of the topology graph (``kind`` names the fabric)."""

    a: str
    b: str
    kind: str = "cxl.flexbus"

    def other(self, name: str) -> str:
        if name == self.a:
            return self.b
        if name == self.b:
            return self.a
        raise ValueError(f"{name!r} is not an endpoint of {self.a}--{self.b}")

    def touches(self, name: str) -> bool:
        return name in (self.a, self.b)


@dataclass(frozen=True)
class Topology:
    """A named node/link graph describing one system layout."""

    name: str
    description: str = ""
    nodes: Tuple[NodeSpec, ...] = ()
    links: Tuple[LinkSpec, ...] = ()

    def validate(self) -> None:
        names = [n.name for n in self.nodes]
        dupes = sorted({n for n in names if names.count(n) > 1})
        if dupes:
            raise ValueError(
                f"topology {self.name!r} has duplicate node names: {dupes}"
            )
        known = set(names)
        for link in self.links:
            for end in (link.a, link.b):
                if end not in known:
                    raise ValueError(
                        f"topology {self.name!r}: link {link.a}--{link.b} "
                        f"references unknown node {end!r}"
                    )

    def node(self, name: str) -> NodeSpec:
        for spec in self.nodes:
            if spec.name == name:
                return spec
        raise KeyError(
            f"topology {self.name!r} has no node {name!r}; "
            f"nodes: {[n.name for n in self.nodes]}"
        )

    def by_kind(self, kind: str) -> Tuple[NodeSpec, ...]:
        return tuple(n for n in self.nodes if n.kind == kind)

    def links_of(self, name: str) -> Tuple[LinkSpec, ...]:
        return tuple(link for link in self.links if link.touches(name))

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON form; inverse of :meth:`from_dict`."""
        return {
            "name": self.name,
            "description": self.description,
            "nodes": [
                {
                    "name": spec.name,
                    "kind": spec.kind,
                    "params": {key: spec.params[key] for key in spec.params},
                }
                for spec in self.nodes
            ],
            "links": [
                {"a": link.a, "b": link.b, "kind": link.kind}
                for link in self.links
            ],
        }

    _TOP_KEYS = frozenset({"name", "description", "nodes", "links"})
    _NODE_KEYS = frozenset({"name", "kind", "params"})
    _LINK_KEYS = frozenset({"a", "b", "kind"})

    @classmethod
    def from_dict(
        cls, data: Mapping[str, object], default_name: Optional[str] = None
    ) -> "Topology":
        """Parse the JSON spec format with full schema validation.

        Every malformed input raises :class:`TopologySchemaError` with a
        message naming the offending element.  Every node's component
        kind is checked against the component registry too, so a spec
        that cannot possibly build fails at load time, not at build time.
        """
        if not isinstance(data, Mapping):
            raise TopologySchemaError(
                f"topology spec must be a JSON object, got {type(data).__name__}"
            )
        unknown = sorted(set(data) - cls._TOP_KEYS)
        if unknown:
            raise TopologySchemaError(
                f"topology spec has unknown key(s) {', '.join(map(repr, unknown))}; "
                f"valid keys: {', '.join(sorted(cls._TOP_KEYS))}"
            )
        name = data.get("name", default_name)
        if not isinstance(name, str) or not name:
            raise TopologySchemaError(
                "topology spec needs a non-empty string 'name' "
                f"(got {name!r})"
            )

        def fail(msg: str) -> None:
            raise TopologySchemaError(f"topology {name!r}: {msg}")

        description = data.get("description", "")
        if not isinstance(description, str):
            fail(f"'description' must be a string, got {description!r}")

        raw_nodes = data.get("nodes", [])
        if isinstance(raw_nodes, (str, bytes)) or not isinstance(raw_nodes, (list, tuple)):
            fail(f"'nodes' must be a list of node objects, got {raw_nodes!r}")
        nodes: List[NodeSpec] = []
        for i, entry in enumerate(raw_nodes):
            if not isinstance(entry, Mapping):
                fail(f"nodes[{i}] must be an object, got {entry!r}")
            bad = sorted(set(entry) - cls._NODE_KEYS)
            if bad:
                fail(
                    f"nodes[{i}] has unknown key(s) {', '.join(map(repr, bad))}; "
                    f"valid keys: {', '.join(sorted(cls._NODE_KEYS))}"
                )
            node_name = entry.get("name")
            if not isinstance(node_name, str) or not node_name:
                fail(f"nodes[{i}] needs a non-empty string 'name' (got {node_name!r})")
            kind = entry.get("kind")
            if not isinstance(kind, str) or not kind:
                fail(f"node {node_name!r} needs a non-empty string 'kind' (got {kind!r})")
            params = entry.get("params", {})
            if not isinstance(params, Mapping):
                fail(f"node {node_name!r}: 'params' must be an object, got {params!r}")
            if any(not isinstance(key, str) for key in params):
                fail(f"node {node_name!r}: every params key must be a string")
            nodes.append(NodeSpec(node_name, kind, dict(params)))

        raw_links = data.get("links", [])
        if isinstance(raw_links, (str, bytes)) or not isinstance(raw_links, (list, tuple)):
            fail(f"'links' must be a list of link objects, got {raw_links!r}")
        links: List[LinkSpec] = []
        for i, entry in enumerate(raw_links):
            if not isinstance(entry, Mapping):
                fail(f"links[{i}] must be an object, got {entry!r}")
            bad = sorted(set(entry) - cls._LINK_KEYS)
            if bad:
                fail(
                    f"links[{i}] has unknown key(s) {', '.join(map(repr, bad))}; "
                    f"valid keys: {', '.join(sorted(cls._LINK_KEYS))}"
                )
            ends = []
            for end in ("a", "b"):
                value = entry.get(end)
                if not isinstance(value, str) or not value:
                    fail(f"links[{i}] needs a non-empty string {end!r} endpoint (got {value!r})")
                ends.append(value)
            kind = entry.get("kind", "cxl.flexbus")
            if not isinstance(kind, str) or not kind:
                fail(f"links[{i}]: 'kind' must be a non-empty string, got {kind!r}")
            links.append(LinkSpec(ends[0], ends[1], kind))

        topology = cls(
            name=name,
            description=description,
            nodes=tuple(nodes),
            links=tuple(links),
        )
        # Duplicate node names and dangling link endpoints are graph
        # errors; re-raise them under the one schema-error type.
        try:
            topology.validate()
        except ValueError as exc:
            raise TopologySchemaError(str(exc)) from None
        # Importing the catalogue registers every built-in factory;
        # deferred so the topology module itself stays import-light.
        from repro.system import components  # noqa: F401
        from repro.system.registry import COMPONENT_KINDS

        for spec in topology.nodes:
            try:
                COMPONENT_KINDS.lookup(spec.kind)
            except ValueError as exc:
                fail(f"node {spec.name!r}: {exc}")
        return topology

    def describe(self) -> str:
        """Multi-line rendering used by ``repro topology show``."""
        lines = [f"topology {self.name}"]
        if self.description:
            lines.append(f"  {self.description}")
        lines.append(f"  nodes ({len(self.nodes)}):")
        for spec in self.nodes:
            params = ", ".join(f"{k}={v}" for k, v in sorted(spec.params.items()))
            suffix = f"  [{params}]" if params else ""
            lines.append(f"    {spec.name:<12} {spec.kind}{suffix}")
        lines.append(f"  links ({len(self.links)}):")
        for link in self.links:
            lines.append(f"    {link.a} <-> {link.b}  ({link.kind})")
        return "\n".join(lines)


# ---------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------
TOPOLOGIES = Registry("topology", Topology, UnknownTopologyError, TopologySchemaError)
register_topology = TOPOLOGIES.register
topology_by_name = TOPOLOGIES.resolve
resolve_topology = TOPOLOGIES.resolve
load_topology = TOPOLOGIES.load
dump_topology = TOPOLOGIES.dump

#: Shipped JSON layouts (repo checkouts only; absent in installed trees).
SHIPPED_TOPOLOGY_DIR = Path(__file__).resolve().parents[3] / "examples" / "topologies"


# ---------------------------------------------------------------------
# Built-in layouts
# ---------------------------------------------------------------------
@register_topology("microbench")
def microbench_topology(seed: int = 1234) -> Topology:
    """§VI-A calibration testbench: one type-1 device, LSU, DMA, NoC."""
    return Topology(
        name="microbench",
        description="single-device calibration layout (Figs. 12-16)",
        nodes=(
            NodeSpec("host", "host", {"seed": seed}),
            NodeSpec("cxl-dev", "cxl.type1"),
            NodeSpec("lsu", "lsu"),
            NodeSpec("dma", "dma"),
            NodeSpec("noc", "noc"),
        ),
        links=(
            LinkSpec("lsu", "cxl-dev", "d2h"),
            LinkSpec("cxl-dev", "host", "cxl.flexbus"),
            LinkSpec("dma", "host", "pcie"),
        ),
    )


@register_topology("rao-cxl")
def rao_cxl_topology(pe_count: Optional[int] = None) -> Topology:
    """CXL-NIC RAO offload system (Fig. 8b): NIC with DCOH/HMC on the LLC."""
    params: Dict[str, object] = {}
    if pe_count is not None:
        params["pe_count"] = pe_count
    return Topology(
        name="rao-cxl",
        description="host + CXL.cache-attached RAO NIC",
        nodes=(
            NodeSpec("host", "host", {"region_name": "host"}),
            NodeSpec("cxl-nic", "nic.cxl_rao", params),
        ),
        links=(LinkSpec("cxl-nic", "host", "cxl.flexbus"),),
    )


@register_topology("rao-pcie")
def rao_pcie_topology() -> Topology:
    """PCIe-NIC RAO baseline (Fig. 8a): DMA read-modify-write NIC."""
    return Topology(
        name="rao-pcie",
        description="standalone PCIe RAO NIC (DMA RMW baseline)",
        nodes=(NodeSpec("pcie-nic", "nic.pcie_rao"),),
    )


@register_topology("rpc")
def rpc_topology() -> Topology:
    """RPC offload comparison (Fig. 18): RpcNIC vs. CXL-NIC pipelines."""
    return Topology(
        name="rpc",
        description="RpcNIC (PCIe) and CXL-NIC RPC pipelines side by side",
        nodes=(
            NodeSpec("rpcnic", "rpc.rpcnic"),
            NodeSpec("cxl-rpc", "rpc.cxl"),
        ),
    )


@register_topology("pcie-dma")
def pcie_dma_topology() -> Topology:
    """Bare PCIe DMA engine (the offload harness's baseline substrate)."""
    return Topology(
        name="pcie-dma",
        description="one descriptor-driven PCIe DMA engine, no host complex",
        nodes=(NodeSpec("dma", "dma"),),
    )


@register_topology("cohet-default")
def cohet_default_topology(hdm_bytes: int = 1 << 30) -> Topology:
    """Default Cohet platform: one host node, one type-2 XPU with HDM."""
    return Topology(
        name="cohet-default",
        description="host + one type-2 accelerator (CohetSystem.build_default)",
        nodes=(
            NodeSpec("host", "host", {"size": None}),
            NodeSpec("xpu0", "cxl.type2", {"hdm_bytes": hdm_bytes}),
        ),
        links=(LinkSpec("xpu0", "host", "cxl.flexbus"),),
    )


def fanout_topology(devices: int = 2, seed: int = 1234) -> Topology:
    """Multi-device fan-out: N type-1 devices (each with an LSU) share
    one host LLC home agent, contending on the host path."""
    if devices < 1:
        raise ValueError("fan-out topology needs at least one device")
    nodes = [NodeSpec("host", "host", {"seed": seed})]
    links = []
    for i in range(devices):
        dev = f"dev{i}"
        lsu = f"lsu{i}"
        nodes.append(NodeSpec(dev, "cxl.type1"))
        nodes.append(NodeSpec(lsu, "lsu", {"device": dev}))
        links.append(LinkSpec(lsu, dev, "d2h"))
        links.append(LinkSpec(dev, "host", "cxl.flexbus"))
    return Topology(
        name=f"fanout-{devices}",
        description=f"{devices}-device fan-out sharing one LLC home agent",
        nodes=tuple(nodes),
        links=tuple(links),
    )


@register_topology("fanout-2")
def fanout2_topology(seed: int = 1234) -> Topology:
    """Two type-1 devices fanning into one host LLC home agent."""
    return fanout_topology(2, seed=seed)


@register_topology("fanout-4")
def fanout4_topology(seed: int = 1234) -> Topology:
    """Four type-1 devices fanning into one host LLC home agent."""
    return fanout_topology(4, seed=seed)


@register_topology("supernode-2host")
def supernode_2host_topology(
    fabric_memory_bytes: int = 4 << 30,
    memory_granule: int = 1 << 30,
    switch_traversal_ps: int = 70_000,
) -> Topology:
    """Two hosts sharing fabric-attached memory behind CXL switches."""
    return supernode_topology(
        2,
        fabric_memory_bytes=fabric_memory_bytes,
        memory_granule=memory_granule,
        switch_traversal_ps=switch_traversal_ps,
    )


def supernode_topology(
    hosts: int = 2,
    fabric_memory_bytes: int = 4 << 30,
    memory_granule: int = 1 << 30,
    switch_traversal_ps: int = 70_000,
) -> Topology:
    """Multi-host supernode layout (§VIII): every host links to the
    switch fabric, which fronts the leasable fabric-attached memory."""
    nodes = [NodeSpec(f"host{i}", "supernode.host") for i in range(hosts)]
    nodes.append(
        NodeSpec(
            "fabric",
            "supernode.fabric",
            {
                "fabric_memory_bytes": fabric_memory_bytes,
                "memory_granule": memory_granule,
                "switch_traversal_ps": switch_traversal_ps,
            },
        )
    )
    links = tuple(
        LinkSpec(f"host{i}", "fabric", "cxl.switch") for i in range(hosts)
    )
    return Topology(
        name=f"supernode-{hosts}host",
        description=f"{hosts} hosts + fabric-attached memory over CXL switches",
        nodes=tuple(nodes),
        links=links,
    )


def _integral_arg(family: str, knob: str, value: Union[int, float]) -> int:
    """Reference args arrive as ints or floats; count-like knobs must be whole."""
    if isinstance(value, float):
        if not value.is_integer():
            raise TopologySchemaError(
                f"topology family {family!r}: {knob} must be an integer, "
                f"got {value!r}"
            )
        return int(value)
    return value


@register_topology("fanout")
def _fanout_family(devices: Union[int, float] = 2, **overrides) -> Topology:
    """``fanout(n)``: n type-1 devices sharing one host LLC home agent."""
    return fanout_topology(_integral_arg("fanout", "devices", devices), **overrides)


@register_topology("supernode")
def _supernode_family(
    hosts: Union[int, float] = 2,
    memory_granule: Union[int, float] = 1 << 30,
    **overrides,
) -> Topology:
    """``supernode(hosts, granule)``: multi-host layout with an optional lease granule in bytes."""
    return supernode_topology(
        _integral_arg("supernode", "hosts", hosts),
        memory_granule=_integral_arg("supernode", "memory_granule", memory_granule),
        **overrides,
    )


# Shipped JSON layouts join the registry after the in-code ones, so an
# in-code name wins.
TOPOLOGIES.register_dir(SHIPPED_TOPOLOGY_DIR)
