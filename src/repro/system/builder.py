"""SystemBuilder: assemble a live simulated system from a Topology.

One builder call replaces the hand-wired ``Simulator()`` + host cache
hierarchy + device plumbing that every harness used to repeat::

    system = SystemBuilder(config).build("microbench")
    lsu = system.node("lsu")

The builder walks the topology's nodes in declaration order and
dispatches each to its registered component factory (see
:mod:`repro.system.registry`).  The ``host`` kind builds the shared
complex — memory interface, DDR controller, LLC home agent — that
device factories attach to; device HDM windows are carved from a
cursor starting at :data:`~repro.system.topology.HDM_BASE` in
declaration order, exactly like the hand-wired code did.

Construction is deterministic: the same config + topology (including
seeds in node params) produces a bit-identical system, which is what
lets the refactored harnesses reproduce the seed figures exactly.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, Optional, Union

from repro.cache.llc import SharedLLC
from repro.config.system import SystemConfig
from repro.mem.address import AddressRange
from repro.mem.controller import MemoryController
from repro.mem.interface import MemoryInterface
from repro.sim.engine import Simulator
from repro.system.registry import component_factory, register_component
from repro.system.topology import HDM_BASE, TOPOLOGIES, NodeSpec, Topology


class BuildError(ValueError):
    """A topology cannot be built against this configuration."""


@dataclass
class BuiltSystem:
    """A complete constructed system: simulator, host complex, nodes."""

    config: SystemConfig
    topology: Topology
    sim: Simulator
    nodes: Dict[str, object] = field(default_factory=dict)
    memif: Optional[MemoryInterface] = None
    host_controller: Optional[MemoryController] = None
    host_region: Optional[AddressRange] = None
    llc: Optional[SharedLLC] = None

    def fork(self) -> "BuiltSystem":
        """An independent, exact copy of this system, counters included.

        The copy starts from this system's simulated time, cache
        contents, RNG states and counters, and shares no mutable state
        with it, so a run on either leaves the other untouched.  This is
        how a harness pays for a long warm-up once and measures several
        workloads from the same warmed state.  The calendar must be
        empty: a pending event's callback may close over this system,
        and its copy would still act on this system.
        """
        if self.sim.pending:
            raise RuntimeError(
                f"cannot fork system {self.topology.name!r}: its calendar "
                f"still holds {self.sim.pending} event(s); drain it with "
                f"sim.run() first"
            )
        return copy.deepcopy(self)

    def node(self, name: str) -> object:
        try:
            return self.nodes[name]
        except KeyError:
            raise KeyError(
                f"system {self.topology.name!r} has no node {name!r}; "
                f"nodes: {sorted(self.nodes)}"
            ) from None

    def require_llc(self, wanted_by: str) -> SharedLLC:
        """The host LLC, or a clear error naming the missing node."""
        if self.llc is None:
            raise BuildError(
                f"{wanted_by} needs a host complex, but topology "
                f"{self.topology.name!r} declares no 'host' node before it"
            )
        return self.llc

    def attached_node(self, name: str, attr: str) -> object:
        """The first linked neighbour of ``name`` exposing ``attr``."""
        for link in self.topology.links_of(name):
            other = self.nodes.get(link.other(name))
            if other is not None and hasattr(other, attr):
                return other
        raise BuildError(
            f"node {name!r} has no linked neighbour with a {attr!r} "
            f"in topology {self.topology.name!r}"
        )


class SystemBuilder:
    """Build :class:`BuiltSystem` instances from declarative topologies."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self._hdm_cursor = HDM_BASE

    def build(self, topology: Union[str, Topology], **overrides) -> BuiltSystem:
        """Construct every node of ``topology`` (a name, reference or instance).

        Keyword overrides are forwarded to the registered topology
        factory when ``topology`` is a name or reference.
        """
        # Importing the component catalogue here (not at module import)
        # keeps repro.system lightweight and cycle-free; the import is
        # cached after the first build.
        from repro.system import components  # noqa: F401

        topology = TOPOLOGIES.resolve(topology, **overrides)
        topology.validate()
        # Resource fit (port budgets, HDM capacity) is judged against
        # this builder's config before any component exists, so an
        # over-subscribed layout fails with one listing-style report.
        from repro.system.validation import validate_topology_config

        validate_topology_config(topology, self.config)
        self._hdm_cursor = HDM_BASE
        system = BuiltSystem(
            config=self.config, topology=topology, sim=Simulator()
        )
        for spec in topology.nodes:
            system.nodes[spec.name] = component_factory(spec.kind)(
                self, system, spec
            )
        return system

    def alloc_hdm(self, name: str, hdm_bytes: int) -> AddressRange:
        """Carve the next HDM window for a type-2 device."""
        if hdm_bytes <= 0:
            raise BuildError(f"{name}: type-2 devices need hdm_bytes")
        hdm = AddressRange(self._hdm_cursor, self._hdm_cursor + hdm_bytes, f"{name}-hdm")
        self._hdm_cursor = hdm.end
        return hdm


@register_component("host")
def _build_host(
    builder: SystemBuilder, system: BuiltSystem, spec: NodeSpec
) -> SharedLLC:
    """Host complex: memory interface + DDR controller + LLC home agent.

    Params: ``size`` (region bytes; ``None`` means the configured DRAM
    size), ``region_name``, ``channels``, ``ii_ps``, ``seed``.
    """
    if system.llc is not None:
        raise BuildError(
            f"topology {system.topology.name!r} declares more than one host node"
        )
    config = system.config
    params = spec.params
    size = params.get("size", 1 << 40)
    if size is None:
        size = config.host.dram_size
    region = AddressRange(0, size, str(params.get("region_name", "host-dram")))
    system.memif = MemoryInterface(config.host.memif_oneway_ps)
    system.host_controller = MemoryController(
        config.host.dram,
        channels=int(params.get("channels", config.host.mem_channels)),
        ii_ps=int(params.get("ii_ps", 0)),
        seed=int(params.get("seed", 1234)),
    )
    system.memif.attach("host", region, system.host_controller)
    system.host_region = region
    system.llc = SharedLLC(system.sim, config.host, system.memif)
    return system.llc
