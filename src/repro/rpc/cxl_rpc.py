"""CXL-NIC RPC offload (Fig. 11).

Deserialization: decoded fields are pushed straight into the host LLC
with NC-P (pipelined, off the critical path); the ring-buffer update is
a single cached-line write.  Serialization comes in three flavours:

* ``mem``   — the CPU builds the message objects in device memory over
  CXL.mem; the serializer then reads locally.
* ``cache`` — the CPU builds objects in host memory as usual; the
  serializer pulls them over CXL.cache, pointer-chasing the object
  graph (optionally assisted by the multi-stride prefetcher).
"""

from __future__ import annotations

from typing import List, Optional

from repro.config.system import SystemConfig
from repro.mem.address import CACHELINE
from repro.nic.prefetcher import MultiStridePrefetcher, PrefetchBuffer
from repro.rpc.hyperprotobench import BenchWorkload
from repro.rpc.layout import ObjectLayout
from repro.rpc.rpcnic import PipelineResult, decode_time_ps, encode_time_ps


class CxlRpcPipeline:
    """The CXL-NIC design with its three serialization paths."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.params = config.rpc

    # ------------------------------------------------------------------
    # Fig. 18a: deserialization with NC-P pushes
    # ------------------------------------------------------------------
    def deserialize_bench(self, bench: BenchWorkload) -> PipelineResult:
        params = self.params
        times: List[int] = []
        for stats in bench.stats:
            # NC-P pushes overlap with decode; only the ring update is
            # exposed per message.
            t = decode_time_ps(params, stats) + params.ncp_ring_update_ps
            times.append(t)
        return PipelineResult("CXL-NIC", bench.name, times, all(bench.round_trips))

    # ------------------------------------------------------------------
    # Fig. 18b: serialization via CXL.mem
    # ------------------------------------------------------------------
    def serialize_bench_mem(self, bench: BenchWorkload) -> PipelineResult:
        params = self.params
        times: List[int] = []
        for stats in bench.stats:
            t = (
                # CPU writes the object into device memory (write-combined
                # CXL.mem stores; ~8% over host-memory construction).
                params.cxl_mem_field_ps * stats.scalar_fields
                + params.cxl_mem_byte_ps * stats.wire_bytes
                + params.notify_ps
                + encode_time_ps(params, stats)
            )
            times.append(t)
        return PipelineResult(
            "CXL-NIC.mem", bench.name, times, all(bench.round_trips)
        )

    # ------------------------------------------------------------------
    # Fig. 18b: serialization via CXL.cache (+ optional prefetcher)
    # ------------------------------------------------------------------
    def serialize_bench_cache(
        self,
        bench: BenchWorkload,
        prefetch: bool = False,
        prefetcher: Optional[MultiStridePrefetcher] = None,
    ) -> PipelineResult:
        params = self.params
        pf = prefetcher if prefetcher is not None else (
            MultiStridePrefetcher() if prefetch else None
        )
        buffer = PrefetchBuffer() if pf is not None else None
        now_ps = 0
        times: List[int] = []
        for layout, stats in zip(bench.layouts, bench.stats):
            fetch = self._fetch_ps(layout, pf, buffer, now_ps)
            t = params.notify_ps + fetch + encode_time_ps(params, stats)
            now_ps += t
            times.append(t)
        design = "CXL-NIC.cache+pf" if pf is not None else "CXL-NIC.cache"
        return PipelineResult(design, bench.name, times, all(bench.round_trips))

    def _fetch_ps(
        self,
        layout: ObjectLayout,
        prefetcher: Optional[MultiStridePrefetcher],
        buffer: Optional[PrefetchBuffer],
        start_ps: int,
    ) -> int:
        """Walk the object graph's blocks: each block's HOP and
        DESCRIPTOR lines chase serially, its BODY lines overlap under
        the DCOH's outstanding window.

        Without a prefetcher every line of a kind costs the same, so a
        block costs ``hop + descriptors·desc + body_lines·body``.  With
        one, the walk visits each block's lines in address order, asks
        the buffer for an in-flight prefetch and trains the prefetcher
        on each demand miss.
        """
        params = self.params
        miss = params.cache_miss_ps
        hit = params.cache_hit_ps
        # Pointer chase, but the fetch front-end runs ahead of the
        # encoder by roughly one block's encode time.
        hop = max(hit, miss - params.chase_overlap_ps)
        desc = max(hit, miss // params.desc_overlap)
        body = max(hit, miss // params.body_overlap)
        if prefetcher is None:
            return sum(
                hop + descriptors * desc + body_lines * body
                for _, descriptors, body_lines in layout.blocks
            )
        residual_ps = buffer.residual_ps
        observe_miss = prefetcher.observe_miss
        issue = buffer.issue
        now = start_ps
        for base, descriptors, body_lines in layout.blocks:
            for k in range(1 + descriptors + body_lines):
                addr = base + CACHELINE * k
                line = hop if k == 0 else desc if k <= descriptors else body
                residual = residual_ps(addr, now, miss)
                if residual is None:
                    cost = line
                    for pf_addr in observe_miss(addr):
                        issue(pf_addr, now, miss)
                elif k == 0:
                    # A pointer chase waits out the whole prefetch.
                    cost = max(hit, residual)
                else:
                    cost = max(hit, min(residual, line))
                now += cost
        return now - start_ps


from repro.system.registry import register_component  # noqa: E402


@register_component("rpc.cxl")
def _build_cxl_rpc_pipeline(builder, system, spec) -> CxlRpcPipeline:
    """Builder factory: the CXL-NIC RPC pipeline (three ser. paths)."""
    return CxlRpcPipeline(system.config)
