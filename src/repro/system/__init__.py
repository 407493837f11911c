"""Unified system-construction layer.

``SystemBuilder`` assembles a complete simulated system (simulator +
host cache hierarchy + memory controller + CXL device stack + NICs +
RPC engines) from a :class:`~repro.config.system.SystemConfig` and a
declarative :class:`~repro.system.topology.Topology`.  Topologies and
component kinds are :class:`~repro.system.registry.Registry` tables, so
new scenarios plug in by name::

    from repro.system import SystemBuilder
    system = SystemBuilder(fpga_system()).build("fanout-2")
    lsu0 = system.node("lsu0")
"""

from repro.system.builder import BuildError, BuiltSystem, SystemBuilder
from repro.system.registry import (
    COMPONENT_KINDS,
    component_factory,
    register_component,
)
from repro.system.validation import (
    DEFAULT_PORT_BUDGETS,
    TopologyConfigError,
    hdm_capacity_bytes,
    validate_topology_config,
)
from repro.system.topology import (
    HDM_BASE,
    LinkSpec,
    NodeSpec,
    SHIPPED_TOPOLOGY_DIR,
    TOPOLOGIES,
    Topology,
    TopologySchemaError,
    UnknownTopologyError,
    dump_topology,
    fanout_topology,
    load_topology,
    microbench_topology,
    register_topology,
    resolve_topology,
    supernode_topology,
    topology_by_name,
)

__all__ = [
    "BuildError",
    "BuiltSystem",
    "SystemBuilder",
    "COMPONENT_KINDS",
    "component_factory",
    "register_component",
    "DEFAULT_PORT_BUDGETS",
    "TopologyConfigError",
    "hdm_capacity_bytes",
    "validate_topology_config",
    "HDM_BASE",
    "LinkSpec",
    "NodeSpec",
    "SHIPPED_TOPOLOGY_DIR",
    "TOPOLOGIES",
    "Topology",
    "TopologySchemaError",
    "UnknownTopologyError",
    "dump_topology",
    "fanout_topology",
    "load_topology",
    "microbench_topology",
    "register_topology",
    "resolve_topology",
    "supernode_topology",
    "topology_by_name",
]
