"""Batched workload representation: op streams as numpy arrays.

A :class:`OpBatch` is the columnar form of a
:class:`~repro.workloads.base.WorkloadOp` stream — five parallel arrays
(kind, address, size, delay, stream) instead of one dataclass per op.
Generators that can express their stream as array math attach a
``generate_batch`` to their :class:`~repro.workloads.base.Workload`;
:meth:`Workload.ops` then *derives* the scalar view from the batch, so
the two representations cannot drift — they are one stream, stored
columnar.

The batch is what the hot paths consume: the
:class:`~repro.workloads.driver.WorkloadDriver` re-stripes and splits
per-host substreams with array ops, and bulk cache probes
(:meth:`CacheArray.lookup_many`) take the address column directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence

import numpy as np

from repro.mem.address import CACHELINE
from repro.workloads.base import WorkloadOp, WorkloadSchemaError

#: Kind encoding of the ``kinds`` column.
KIND_READ = 0
KIND_WRITE = 1

_KIND_NAMES = ("read", "write")

#: ``(column, least allowed value, wording)`` — the bounds
#: :class:`WorkloadOp` enforces on its scalar fields.
_COLUMN_BOUNDS = (
    ("addrs", 0, "non-negative"),
    ("sizes", 1, "positive"),
    ("delays", 0, "non-negative"),
    ("streams", 0, "non-negative"),
)


def _column(values, dtype, name: str) -> np.ndarray:
    array = np.asarray(values, dtype=dtype)
    if array.ndim != 1:
        raise WorkloadSchemaError(
            f"op batch column {name!r} must be one-dimensional, "
            f"got shape {array.shape}"
        )
    return array


@dataclass(frozen=True)
class OpBatch:
    """A workload op stream as five parallel columns.

    ``kinds`` holds :data:`KIND_READ`/:data:`KIND_WRITE`; the remaining
    columns mirror the :class:`WorkloadOp` fields.  Row ``i`` of every
    column together is exactly ``to_ops()[i]``.
    """

    kinds: np.ndarray
    addrs: np.ndarray
    sizes: np.ndarray
    delays: np.ndarray
    streams: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "kinds", _column(self.kinds, np.uint8, "kinds"))
        for name in ("addrs", "sizes", "delays", "streams"):
            object.__setattr__(
                self, name, _column(getattr(self, name), np.int64, name)
            )
        n = len(self.kinds)
        for name in ("addrs", "sizes", "delays", "streams"):
            if len(getattr(self, name)) != n:
                raise WorkloadSchemaError(
                    f"op batch column {name!r} has {len(getattr(self, name))} "
                    f"rows but kinds has {n}"
                )
        if n and int(self.kinds.max(initial=0)) > KIND_WRITE:
            raise WorkloadSchemaError(
                "op batch kinds must be KIND_READ (0) or KIND_WRITE (1)"
            )
        # WorkloadOp's per-field checks, one vectorized pass per column.
        for name, least, what in _COLUMN_BOUNDS:
            column = getattr(self, name)
            if column.min(initial=least) < least:
                row = int((column < least).argmax())
                raise WorkloadSchemaError(
                    f"op batch column {name!r} must hold {what} integers, "
                    f"got {int(column[row])} at row {row}"
                )

    # -- construction --------------------------------------------------
    @classmethod
    def from_ops(cls, ops: Sequence[WorkloadOp]) -> "OpBatch":
        """Columnarize a scalar op list; exact round trip with to_ops."""
        return cls(
            kinds=[KIND_WRITE if op.kind == "write" else KIND_READ for op in ops],
            addrs=[op.addr for op in ops],
            sizes=[op.size for op in ops],
            delays=[op.delay_ps for op in ops],
            streams=[op.stream for op in ops],
        )

    @classmethod
    def reads(
        cls,
        line_indices,
        line_bytes: int = CACHELINE,
        delays=None,
        streams=None,
    ) -> "OpBatch":
        """All-read batch over line indices — the common generator shape."""
        idx = _column(line_indices, np.int64, "line_indices")
        n = len(idx)
        return cls(
            kinds=np.zeros(n, dtype=np.uint8),
            addrs=idx * line_bytes,
            sizes=np.full(n, CACHELINE, dtype=np.int64),
            delays=np.zeros(n, dtype=np.int64) if delays is None else delays,
            streams=np.zeros(n, dtype=np.int64) if streams is None else streams,
        )

    # -- views ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self.kinds)

    @property
    def read_count(self) -> int:
        return int(np.count_nonzero(self.kinds == KIND_READ))

    @property
    def write_count(self) -> int:
        return int(np.count_nonzero(self.kinds == KIND_WRITE))

    def to_ops(self) -> List[WorkloadOp]:
        """Expand into the scalar :class:`WorkloadOp` list, row by row."""
        return [
            WorkloadOp(_KIND_NAMES[k], a, s, d, st)
            for k, a, s, d, st in zip(
                self.kinds.tolist(),
                self.addrs.tolist(),
                self.sizes.tolist(),
                self.delays.tolist(),
                self.streams.tolist(),
            )
        ]

    def restripe(self, streams: int) -> "OpBatch":
        """Round-robin the rows across ``streams`` issue chains.

        The batch twin of the driver's scalar re-striping: op ``i``
        lands on stream ``i % streams``.
        """
        if streams < 1:
            raise WorkloadSchemaError(f"restripe needs streams >= 1, got {streams}")
        return OpBatch(
            kinds=self.kinds,
            addrs=self.addrs,
            sizes=self.sizes,
            delays=self.delays,
            streams=np.arange(len(self), dtype=np.int64) % streams,
        )

    def concat(self, others: Iterable["OpBatch"]) -> "OpBatch":
        """Concatenate batches in order (phase composition)."""
        parts = [self, *others]
        return OpBatch(
            kinds=np.concatenate([p.kinds for p in parts]),
            addrs=np.concatenate([p.addrs for p in parts]),
            sizes=np.concatenate([p.sizes for p in parts]),
            delays=np.concatenate([p.delays for p in parts]),
            streams=np.concatenate([p.streams for p in parts]),
        )


def numpy_rng(rng) -> np.random.Generator:
    """Derive a numpy generator from the workload's scalar ``Random``.

    One 64-bit draw from the expansion rng seeds a PCG64 stream, so a
    batch generator is exactly as seed-deterministic as a scalar one:
    same expansion seed, same arrays.
    """
    return np.random.Generator(np.random.PCG64(rng.getrandbits(64)))
