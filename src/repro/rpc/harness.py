"""RPC evaluation harness: CXL-NIC vs. RpcNIC over HyperProtoBench."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.config.system import SystemConfig
from repro.rpc.cxl_rpc import CxlRpcPipeline
from repro.rpc.hyperprotobench import BENCH_NAMES, make_bench
from repro.rpc.rpcnic import PipelineResult, RpcNicPipeline
from repro.system import SystemBuilder


@dataclass
class RpcComparison:
    """Fig. 18 rows for one bench."""

    bench: str
    deser_rpcnic_us: float
    deser_cxl_us: float
    ser_rpcnic_us: float
    ser_cxl_mem_us: float
    ser_cxl_cache_us: float
    ser_cxl_cache_pf_us: float

    @property
    def deser_speedup(self) -> float:
        return self.deser_rpcnic_us / self.deser_cxl_us

    @property
    def ser_speedup_mem(self) -> float:
        return self.ser_rpcnic_us / self.ser_cxl_mem_us

    @property
    def ser_speedup_cache_pf(self) -> float:
        return self.ser_rpcnic_us / self.ser_cxl_cache_pf_us

    @property
    def prefetch_gain(self) -> float:
        """Fractional serialization improvement from the prefetcher."""
        return 1.0 - self.ser_cxl_cache_pf_us / self.ser_cxl_cache_us


def run_rpc_comparison(
    config: SystemConfig,
    benches: Sequence[str] = BENCH_NAMES,
    messages: int = 300,
    seed: int = 11,
) -> Dict[str, RpcComparison]:
    """Run every bench through all four designs."""
    system = SystemBuilder(config).build("rpc")
    rpcnic: RpcNicPipeline = system.node("rpcnic")
    cxl: CxlRpcPipeline = system.node("cxl-rpc")
    results: Dict[str, RpcComparison] = {}
    for name in benches:
        bench = make_bench(name, messages=messages, seed=seed)
        deser_rpc = rpcnic.deserialize_bench(bench)
        deser_cxl = cxl.deserialize_bench(bench)
        ser_rpc = rpcnic.serialize_bench(bench)
        ser_mem = cxl.serialize_bench_mem(bench)
        ser_cache = cxl.serialize_bench_cache(bench, prefetch=False)
        ser_cache_pf = cxl.serialize_bench_cache(bench, prefetch=True)
        for result in (deser_rpc, deser_cxl, ser_rpc, ser_mem, ser_cache, ser_cache_pf):
            if not result.verified:
                raise AssertionError(f"{result.design} failed verification on {name}")
        results[name] = RpcComparison(
            bench=name,
            deser_rpcnic_us=deser_rpc.total_us,
            deser_cxl_us=deser_cxl.total_us,
            ser_rpcnic_us=ser_rpc.total_us,
            ser_cxl_mem_us=ser_mem.total_us,
            ser_cxl_cache_us=ser_cache.total_us,
            ser_cxl_cache_pf_us=ser_cache_pf.total_us,
        )
    return results
