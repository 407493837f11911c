"""CohetSystem: assemble a full coherent heterogeneous platform.

Builds the Fig. 3 stack bottom-up: simulated hardware (host memory +
LLC home agent + CXL devices over Flex Bus) through the declarative
:mod:`repro.system` construction layer, then the OS level (NUMA init,
unified page table, HMM, drivers), and the user level (process with
malloc/mmap, compute devices, command queues).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config.system import SystemConfig
from repro.core.runtime import CommandQueue, ComputeDevice
from repro.core.unified_memory import CohetProcess
from repro.cxl.device import DeviceType
from repro.cxl.io import enumerate_devices
from repro.kernel.driver import XpuDriver
from repro.kernel.fabric import FabricManager
from repro.kernel.hmm import Hmm
from repro.kernel.numa import NodeKind, NumaRegistry, numa_init
from repro.kernel.page_table import UnifiedPageTable
from repro.mem.address import AddressRange, split_evenly
from repro.system import LinkSpec, NodeSpec, SystemBuilder, Topology, topology_by_name

#: Component kind registered for each CXL device type.
DEVICE_KINDS: Dict[DeviceType, str] = {
    DeviceType.TYPE1: "cxl.type1",
    DeviceType.TYPE2: "cxl.type2",
}

_KIND_TYPES: Dict[str, DeviceType] = {v: k for k, v in DEVICE_KINDS.items()}


@dataclass
class DeviceSpec:
    """Request for one CXL device in the system."""

    name: str
    device_type: DeviceType
    hdm_bytes: int = 0   # device memory for a type-2 device


class CohetSystem:
    """A booted Cohet platform."""

    HOST_BASE = 0x0
    HDM_BASE = 0x8_0000_0000  # device windows start at 32 GB

    def __init__(
        self,
        config: SystemConfig,
        host_nodes: int = 1,
        devices: Sequence[DeviceSpec] = (),
        host_bytes: Optional[int] = None,
    ) -> None:
        self.config = config

        # ---------------- hardware: built from the topology -----------
        host_bytes = host_bytes or config.host.dram_size
        self.topology = self._hardware_topology(devices, host_bytes)
        built = SystemBuilder(config).build(self.topology)
        self.built = built
        self.sim = built.sim
        self.host_region = built.host_region
        self.memif = built.memif
        self.host_controller = built.host_controller
        self.llc = built.llc

        self.devices: Dict[str, object] = {
            spec.name: built.node(spec.name) for spec in devices
        }
        xpu_regions: List[AddressRange] = [
            built.node(s.name).hdm for s in devices
            if s.device_type is DeviceType.TYPE2
        ]

        # BIOS: enumerate config spaces, size BARs, map MMIO windows.
        slots = [
            (0, slot, dev.config_space)
            for slot, dev in enumerate(self.devices.values())
        ]
        self.enumerated = {
            name: entry
            for name, entry in zip(self.devices, enumerate_devices(slots))
        }

        # ---------------- OS level ------------------------------------
        host_ranges = split_evenly(self.host_region, host_nodes)
        self.numa: NumaRegistry = numa_init(host_ranges, xpu_regions)
        self.page_table = UnifiedPageTable(pid=1)
        self.hmm = Hmm(self.page_table, self.numa)
        self.fabric = FabricManager()

        self.drivers: Dict[str, XpuDriver] = {}
        xpu_nodes = [n.node_id for n in self.numa.by_kind(NodeKind.XPU)]
        xpu_cursor = 0
        for name, device in self.devices.items():
            memory_node = None
            if getattr(device, "device_type", None) is DeviceType.TYPE2:
                memory_node = xpu_nodes[xpu_cursor]
                xpu_cursor += 1
            driver = XpuDriver(device, self.enumerated[name], memory_node)
            driver.open()
            driver.mmap_bar(0)
            self.drivers[name] = driver
            self.fabric.add_xpu(name, config.device.name)
            self.fabric.allocate_xpu("host0")

        # ---------------- user level ----------------------------------
        cpu_node = self.numa.by_kind(NodeKind.CPU)[0].node_id
        self.process = CohetProcess(self.hmm, pid=1, default_node=cpu_node)
        self.cpu_device = ComputeDevice("cpu-pool", cpu_node, is_xpu=False)
        self.compute_devices: Dict[str, ComputeDevice] = {"cpu": self.cpu_device}
        for name, driver in self.drivers.items():
            node = driver.memory_node if driver.memory_node is not None else cpu_node
            self.compute_devices[name] = ComputeDevice(name, node, is_xpu=True)

    # ------------------------------------------------------------------
    # Topology plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _hardware_topology(
        devices: Sequence[DeviceSpec], host_bytes: int
    ) -> Topology:
        """Translate :class:`DeviceSpec` requests into a builder topology."""
        nodes = [NodeSpec("host", "host", {"size": host_bytes})]
        links = []
        for spec in devices:
            params = (
                {"hdm_bytes": spec.hdm_bytes}
                if spec.device_type is not DeviceType.TYPE1
                else {}
            )
            nodes.append(NodeSpec(spec.name, DEVICE_KINDS[spec.device_type], params))
            links.append(LinkSpec(spec.name, "host", "cxl.flexbus"))
        return Topology(
            name="cohet", nodes=tuple(nodes), links=tuple(links)
        )

    @staticmethod
    def device_specs_from_topology(topology: Topology) -> List[DeviceSpec]:
        """The :class:`DeviceSpec` list encoded by a topology's device nodes."""
        specs = []
        for node in topology.nodes:
            device_type = _KIND_TYPES.get(node.kind)
            if device_type is None:
                continue
            specs.append(
                DeviceSpec(
                    node.name,
                    device_type,
                    hdm_bytes=int(node.params.get("hdm_bytes", 0)),
                )
            )
        return specs

    @classmethod
    def from_topology(
        cls,
        config: SystemConfig,
        topology: Topology,
        host_nodes: int = 1,
    ) -> "CohetSystem":
        """Boot a Cohet platform whose hardware is described by ``topology``.

        The topology's ``host`` node may carry a ``size`` param
        (``None`` means the configured DRAM size); every ``cxl.type*``
        node becomes one device.
        """
        host_bytes: Optional[int] = None
        for node in topology.nodes:
            if node.kind == "host":
                size = node.params.get("size")
                host_bytes = None if size is None else int(size)
        return cls(
            config,
            host_nodes=host_nodes,
            devices=cls.device_specs_from_topology(topology),
            host_bytes=host_bytes,
        )

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def queue(self, device_name: str = "cpu") -> CommandQueue:
        """Create a command queue on the named compute device."""
        device = self.compute_devices[device_name]
        return CommandQueue(self.process, device)

    def driver(self, name: str) -> XpuDriver:
        return self.drivers[name]

    @classmethod
    def build_default(cls, config: SystemConfig) -> "CohetSystem":
        """One host node, one type-2 XPU with 1 GB of device memory.

        Thin wrapper over the registered ``"cohet-default"`` topology.
        """
        return cls.from_topology(config, topology_by_name("cohet-default"))
