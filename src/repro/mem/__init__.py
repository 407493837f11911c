"""Memory substrate: address ranges, DDR5 timing, controllers, routing."""

from repro.mem.address import AddressRange, Interleaver, line_base, line_offset
from repro.mem.dram import DramBankModel
from repro.mem.controller import MemoryController
from repro.mem.interface import MemoryInterface

__all__ = [
    "AddressRange",
    "Interleaver",
    "line_base",
    "line_offset",
    "DramBankModel",
    "MemoryController",
    "MemoryInterface",
]
