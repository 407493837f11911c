"""Interconnect models: PCIe, CXL Flex Bus, NoC/UPI topology."""

from repro.interconnect.pcie import PcieLink, Tlp, TlpType
from repro.interconnect.flexbus import FlexBus, FlexBusChannel
from repro.interconnect.noc import NocTopology, NodeCoord

__all__ = [
    "PcieLink",
    "Tlp",
    "TlpType",
    "FlexBus",
    "FlexBusChannel",
    "NocTopology",
    "NodeCoord",
]
