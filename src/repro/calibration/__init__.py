"""Hardware calibration: reference measurements, error metrics, testbench."""

from repro.calibration.reference import (
    DMA_BANDWIDTH_GBPS,
    DMA_LATENCY_NS,
    LOAD_BANDWIDTH_GBPS,
    LOAD_LATENCY_NS,
    NUMA_MEDIAN_NS,
    RAO_SPEEDUP,
    RPC_DESER_SPEEDUP,
    RPC_SER_SPEEDUP_MEM,
)
from repro.calibration.metrics import absolute_percentage_error, mape
from repro.calibration.microbench import CxlTestbench

__all__ = [
    "DMA_BANDWIDTH_GBPS",
    "DMA_LATENCY_NS",
    "LOAD_BANDWIDTH_GBPS",
    "LOAD_LATENCY_NS",
    "NUMA_MEDIAN_NS",
    "RAO_SPEEDUP",
    "RPC_DESER_SPEEDUP",
    "RPC_SER_SPEEDUP_MEM",
    "absolute_percentage_error",
    "mape",
    "CxlTestbench",
]
