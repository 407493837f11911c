"""Device models: LSU microbenchmark unit, DMA engines, PMU."""

from repro.devices.pmu import Pmu
from repro.devices.lsu import LoadStoreUnit, LsuReport
from repro.devices.dma import DmaEngine, DmaReport

__all__ = [
    "Pmu",
    "LoadStoreUnit",
    "LsuReport",
    "DmaEngine",
    "DmaReport",
]
