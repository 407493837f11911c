"""RpcNIC: the PCIe-attached RPC offload baseline (Fig. 10).

Deserialization: field-by-field decode into a 4 KB on-chip temp buffer,
one-shot DMA to host memory per message (or buffer fill), ring-buffer
doorbell via DMA write.  Serialization: the CPU pre-serializes with the
DSA memcpy engine into a DMA-safe buffer, rings an NIC doorbell via
MMIO, the NIC pulls the buffer with a DMA read and encodes.

The pipeline verifies functionally (every message it delivers must
round-trip through the real wire codec, see
:attr:`~repro.rpc.hyperprotobench.BenchWorkload.round_trips`) and
accounts time from the calibrated RpcParams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.config.system import RpcParams, SystemConfig
from repro.rpc.hyperprotobench import BenchWorkload
from repro.rpc.message import MessageStats


@dataclass
class PipelineResult:
    """Total and per-message times for one bench run.

    ``retransmits``/``dropped`` stay zero on the default clean wire;
    they count lossy-wire recovery when a pipeline runs with a
    ``corrupt_rate`` (see :class:`RpcNicPipeline`).
    """

    design: str
    bench: str
    per_message_ps: List[int]
    verified: bool
    retransmits: int = 0
    dropped: int = 0

    @property
    def total_ps(self) -> int:
        return sum(self.per_message_ps)

    @property
    def total_us(self) -> float:
        return self.total_ps / 1e6

    @property
    def mean_ps(self) -> float:
        return self.total_ps / len(self.per_message_ps)


def decode_time_ps(params: RpcParams, stats: MessageStats) -> int:
    """Field-by-field hardware decode cost (common to both designs)."""
    return (
        params.parse_ps
        + params.decode_field_ps * stats.scalar_fields
        + params.decode_byte_ps * stats.wire_bytes
        + params.decode_nest_ps * stats.nested_messages
    )


def encode_time_ps(params: RpcParams, stats: MessageStats) -> int:
    """Hardware serializer encode cost (common to both designs)."""
    return (
        params.encode_fixed_ps
        + params.encode_field_ps * stats.scalar_fields
        + params.encode_byte_ps * stats.wire_bytes
        + params.encode_nest_ps * stats.nested_messages
    )


class RpcNicPipeline:
    """The PCIe RpcNIC design.

    ``corrupt_rate`` models a lossy wire: each message delivery draws
    deterministically (:func:`repro.faults.plan.corrupt_draw`, the same
    hash the fault controller uses, so the layers cannot drift) and a
    corrupted delivery is retransmitted — the whole per-message cost is
    paid again — up to ``max_retransmits`` times before the message
    counts as dropped.  The default clean wire (rate 0) never draws and
    is bit-identical to the pre-fault pipeline.
    """

    TEMP_BUFFER = 4096

    def __init__(
        self,
        config: SystemConfig,
        corrupt_rate: float = 0.0,
        seed: int = 1234,
        max_retransmits: int = 3,
    ) -> None:
        if not 0 <= corrupt_rate < 1:
            raise ValueError(
                f"corrupt_rate must be in [0, 1), got {corrupt_rate!r}"
            )
        if max_retransmits < 0:
            raise ValueError(
                f"max_retransmits must be >= 0, got {max_retransmits!r}"
            )
        self.config = config
        self.params = config.rpc
        self.corrupt_rate = corrupt_rate
        self.seed = seed
        self.max_retransmits = max_retransmits

    def _deliveries(self, key: str, index: int) -> "tuple[int, bool]":
        """Wire deliveries paid for message ``index``; True = dropped."""
        deliveries = 1
        if self.corrupt_rate <= 0:
            return deliveries, False
        from repro.faults.plan import corrupt_draw

        while corrupt_draw(
            self.seed, f"{key}:{index}", deliveries - 1, self.corrupt_rate
        ):
            if deliveries > self.max_retransmits:
                return deliveries, True
            deliveries += 1
        return deliveries, False

    # ------------------------------------------------------------------
    # Fig. 18a: deserialization
    # ------------------------------------------------------------------
    def deserialize_bench(self, bench: BenchWorkload) -> PipelineResult:
        params = self.params
        times: List[int] = []
        verified = True
        retransmits = 0
        dropped = 0
        for i, (round_trip, stats) in enumerate(zip(bench.round_trips, bench.stats)):
            deliveries, lost = self._deliveries(f"{bench.name}:rx", i)
            retransmits += deliveries - 1
            # One DMA flush per temp-buffer fill (at least one per message).
            flushes = max(1, -(-stats.wire_bytes // self.TEMP_BUFFER))
            t = (
                decode_time_ps(params, stats)
                + flushes * params.flush_fixed_ps
                + params.flush_byte_ps * stats.wire_bytes
            )
            times.append(t * deliveries)
            if lost:
                dropped += 1
                continue
            verified = verified and round_trip
        return PipelineResult(
            "RpcNIC", bench.name, times, verified,
            retransmits=retransmits, dropped=dropped,
        )

    # ------------------------------------------------------------------
    # Fig. 18b: serialization
    # ------------------------------------------------------------------
    def serialize_bench(self, bench: BenchWorkload) -> PipelineResult:
        params = self.params
        times: List[int] = []
        verified = True
        retransmits = 0
        dropped = 0
        for i, (round_trip, stats) in enumerate(zip(bench.round_trips, bench.stats)):
            deliveries, lost = self._deliveries(f"{bench.name}:tx", i)
            retransmits += deliveries - 1
            t = (
                # CPU pre-serialization: DSA gathers every field.
                params.dsa_field_ps * stats.scalar_fields
                + params.dsa_byte_ps * stats.wire_bytes
                # MMIO doorbell announcing the prepared buffer.
                + params.mmio_doorbell_ps
                # NIC pulls the buffer over DMA.
                + params.dma_pull_fixed_ps
                + params.dma_pull_byte_ps * stats.wire_bytes
                # Hardware encode from NIC memory.
                + encode_time_ps(params, stats)
            )
            times.append(t * deliveries)
            if lost:
                dropped += 1
                continue
            verified = verified and round_trip
        return PipelineResult(
            "RpcNIC", bench.name, times, verified,
            retransmits=retransmits, dropped=dropped,
        )


from repro.system.registry import register_component  # noqa: E402


@register_component("rpc.rpcnic")
def _build_rpcnic_pipeline(builder, system, spec) -> RpcNicPipeline:
    """Builder factory: the PCIe RpcNIC (de)serialization pipeline."""
    return RpcNicPipeline(
        system.config,
        corrupt_rate=float(spec.params.get("corrupt_rate", 0.0)),
        seed=int(spec.params.get("seed", 1234)),
        max_retransmits=int(spec.params.get("max_retransmits", 3)),
    )
