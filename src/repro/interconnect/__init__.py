"""Interconnect models: CXL Flex Bus, NoC/UPI topology."""

from repro.interconnect.flexbus import FlexBus
from repro.interconnect.noc import NocTopology, NodeCoord

__all__ = [
    "FlexBus",
    "NocTopology",
    "NodeCoord",
]
