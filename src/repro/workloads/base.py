"""Workload abstraction: named, seeded, deterministic operation streams.

A :class:`Workload` is the *traffic* of a simulated scenario the same
way a :class:`~repro.system.topology.Topology` is its *shape*: a
declarative, registry-addressable object that expands — under a fixed
seed — into one deterministic stream of timed memory operations
(:class:`WorkloadOp`).  The :class:`~repro.workloads.driver.WorkloadDriver`
issues that stream through any builder-constructed system; the trace
layer (:mod:`repro.workloads.trace`) records and replays it
bit-identically.

Workloads register by name in :data:`WORKLOADS`, a
:class:`~repro.system.registry.Registry` like the topology and
fault-plan ones, so harnesses, sweep grids and the CLI (``repro workload
list|show|record|replay``) can refer to an access pattern with a plain
string.  Registered entries are *factories*: they accept positional
knobs (op counts, skew exponents, read fractions) and return a fresh
:class:`Workload`, so a sweep grid can hold parametric references like
``"zipf(512,1.2)"`` as plain JSON strings, as it does ``"fanout(6)"``
for topologies.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional

from repro.mem.address import CACHELINE
from repro.system.registry import Registry


class WorkloadSchemaError(ValueError):
    """A workload reference or trace file is malformed.

    The workload-layer counterpart of
    :class:`repro.system.topology.TopologySchemaError`: every malformed
    input raises this one type with a message naming the offending
    element.
    """


class UnknownWorkloadError(ValueError):
    """A name/reference does not identify a registered workload.

    Listing-style, matching :class:`repro.system.topology.UnknownTopologyError`:
    the message always enumerates the valid options.
    """


@dataclass(frozen=True)
class WorkloadOp:
    """One timed memory operation of a workload stream.

    ``addr`` is workload-relative — the driver rebases the whole stream
    into the target system's address map, so two streams touching the
    same ``addr`` share a cache line wherever the workload runs.
    ``delay_ps`` is the think time between the previous completion on
    the same ``stream`` and this issue; ``stream`` indexes the issuing
    agent (LSU or supernode host, assigned round-robin by the driver).
    """

    kind: str  # "read" | "write"
    addr: int
    size: int = CACHELINE
    delay_ps: int = 0
    stream: int = 0

    KINDS = ("read", "write")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise WorkloadSchemaError(
                f"workload op kind must be one of {self.KINDS}, got {self.kind!r}"
            )
        for name in ("addr", "size", "delay_ps", "stream"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise WorkloadSchemaError(
                    f"workload op {name} must be a non-negative integer, "
                    f"got {value!r}"
                )
        if self.size == 0:
            raise WorkloadSchemaError("workload op size must be positive")


#: ``generate(rng) -> iterable of WorkloadOp`` — the rng is the only
#: source of randomness, which is what makes streams seed-deterministic.
OpGenerator = Callable[[random.Random], Iterable[WorkloadOp]]

#: ``generate_batch(rng) -> OpBatch`` — the columnar twin; when present
#: it is the authoritative stream and ``ops()`` derives from it.
BatchGenerator = Callable[[random.Random], "object"]


@dataclass(frozen=True)
class Workload:
    """A named, seeded, deterministic stream of timed memory operations."""

    name: str
    description: str = ""
    params: Dict[str, object] = field(default_factory=dict)
    generate: Optional[OpGenerator] = None
    generate_batch: Optional[BatchGenerator] = None

    def ops(self, seed: int = 1234) -> List[WorkloadOp]:
        """Expand the stream under ``seed``; same seed, same ops.

        When the workload has a batch generator the scalar view is
        derived from the batch, so the two representations are one
        stream by construction.
        """
        if self.generate_batch is not None:
            return self.batch(seed).to_ops()
        if self.generate is None:
            return []
        return list(self.generate(random.Random(seed)))

    def batch(self, seed: int = 1234):
        """Expand the stream under ``seed`` as a columnar ``OpBatch``.

        Batch-native workloads expand directly; scalar-only ones (e.g.
        the dependently-walked pointer chase) columnarize their op
        list, so every workload has a batch view.
        """
        from repro.workloads.vectorized import OpBatch

        if self.generate_batch is not None:
            return self.generate_batch(random.Random(seed))
        return OpBatch.from_ops(
            list(self.generate(random.Random(seed))) if self.generate else []
        )

    def describe(self, seed: int = 1234, preview: int = 8) -> str:
        """Multi-line rendering used by ``repro workload show``."""
        ops = self.ops(seed)
        reads = sum(1 for op in ops if op.kind == "read")
        streams = sorted({op.stream for op in ops})
        lines = [f"workload {self.name}"]
        if self.description:
            lines.append(f"  {self.description}")
        if self.params:
            rendered = ", ".join(
                f"{k}={v}" for k, v in sorted(self.params.items())
            )
            lines.append(f"  params: {rendered}")
        lines.append(
            f"  ops (seed {seed}): {len(ops)} "
            f"({reads} reads / {len(ops) - reads} writes, "
            f"{len(streams)} stream{'s' if len(streams) != 1 else ''})"
        )
        for op in ops[:preview]:
            lines.append(
                f"    {op.kind:<5} addr=0x{op.addr:06x} size={op.size}"
                f" delay_ps={op.delay_ps} stream={op.stream}"
            )
        if len(ops) > preview:
            lines.append(f"    ... {len(ops) - preview} more")
        return "\n".join(lines)


# ---------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------
WORKLOADS = Registry("workload", Workload, UnknownWorkloadError, WorkloadSchemaError)
register_workload = WORKLOADS.register
resolve_workload = WORKLOADS.resolve
