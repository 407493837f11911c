"""HyperProtoBench-style workloads (§VI-E).

Six benches model the message populations of Google's production
fleet study: Bench1 is dominated by small scalar fields, Bench2 by
deep nesting (pointer chasing), Bench5 by large string fields; the
rest mix the regimes.  Schemas are built from real protobuf field
descriptors and messages are generated deterministically, so the
pipelines operate on genuine wire bytes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, List

from repro.rpc.layout import ObjectLayout, SlabAllocator, layout_message
from repro.rpc.message import (
    MessageStats,
    _stats,
    decode_message,
    encode_message,
    generate_message,
)
from repro.rpc.schema import FieldDescriptor, FieldKind, MessageSchema

BENCH_NAMES = ("Bench0", "Bench1", "Bench2", "Bench3", "Bench4", "Bench5")


def _scalars(start: int, uints: int = 0, doubles: int = 0, strings: int = 0) -> List[FieldDescriptor]:
    fields = []
    number = start
    for _ in range(uints):
        fields.append(FieldDescriptor(number, f"u{number}", FieldKind.UINT))
        number += 1
    for _ in range(doubles):
        fields.append(FieldDescriptor(number, f"d{number}", FieldKind.DOUBLE))
        number += 1
    for _ in range(strings):
        fields.append(FieldDescriptor(number, f"s{number}", FieldKind.STRING))
        number += 1
    return fields


def _nested(number: int, name: str, schema: MessageSchema) -> FieldDescriptor:
    return FieldDescriptor(number, name, FieldKind.MESSAGE, schema)


def _bench0() -> MessageSchema:
    """Mixed typical microservice payload."""
    inner2 = MessageSchema("B0.Inner2", tuple(_scalars(1, uints=8, strings=1)))
    inner1 = MessageSchema(
        "B0.Inner1",
        tuple(_scalars(1, uints=10, strings=1) + [_nested(12, "next", inner2)]),
    )
    inner3 = MessageSchema("B0.Side", tuple(_scalars(1, uints=6, strings=1)))
    fields = _scalars(1, uints=12, doubles=2, strings=1)
    fields += [_nested(16, "chain", inner1), _nested(17, "side", inner3)]
    return MessageSchema("B0.Root", tuple(fields))


def _bench1() -> MessageSchema:
    """Small scalar fields (the highest-speedup regime)."""
    inner = MessageSchema("B1.Inner", tuple(_scalars(1, uints=10, doubles=4)))
    fields = _scalars(1, uints=10, doubles=4) + [_nested(15, "inner", inner)]
    return MessageSchema("B1.Root", tuple(fields))


def _bench2() -> MessageSchema:
    """Deeply nested (>10 levels of pointer chasing)."""
    schema = MessageSchema("B2.L12", tuple(_scalars(1, uints=3, strings=1)))
    for level in range(11, 0, -1):
        fields = _scalars(1, uints=3, strings=1) + [_nested(5, "next", schema)]
        schema = MessageSchema(f"B2.L{level}", tuple(fields))
    return schema


def _bench3() -> MessageSchema:
    inners = [
        MessageSchema(f"B3.Inner{i}", tuple(_scalars(1, uints=7, strings=1)))
        for i in range(3)
    ]
    fields = _scalars(1, uints=9, doubles=1, strings=1)
    fields += [_nested(12 + i, f"part{i}", inner) for i, inner in enumerate(inners)]
    return MessageSchema("B3.Root", tuple(fields))


def _bench4() -> MessageSchema:
    inners = [
        MessageSchema(f"B4.Inner{i}", tuple(_scalars(1, uints=9, strings=1)))
        for i in range(2)
    ]
    fields = _scalars(1, uints=7, doubles=1, strings=1)
    fields += [_nested(10 + i, f"blob{i}", inner) for i, inner in enumerate(inners)]
    return MessageSchema("B4.Root", tuple(fields))


def _bench5() -> MessageSchema:
    """Large string fields (bulk payloads favouring DMA)."""
    inner = MessageSchema("B5.Inner", tuple(_scalars(1, uints=4, strings=1)))
    fields = _scalars(1, uints=4, strings=2) + [_nested(7, "inner", inner)]
    return MessageSchema("B5.Root", tuple(fields))


_BUILDERS: Dict[str, Callable[[], MessageSchema]] = {
    "Bench0": _bench0,
    "Bench1": _bench1,
    "Bench2": _bench2,
    "Bench3": _bench3,
    "Bench4": _bench4,
    "Bench5": _bench5,
}

# Per-bench string sizing (bytes) used by the generator.
_STRING_BYTES: Dict[str, int] = {
    "Bench0": 60,
    "Bench1": 16,
    "Bench2": 30,
    "Bench3": 150,
    "Bench4": 400,
    "Bench5": 1000,
}


@dataclass
class BenchWorkload:
    """A generated bench: schema, values, wire bytes, and stats."""

    name: str
    schema: MessageSchema
    values: List[Dict]
    encoded: List[bytes]
    stats: List[MessageStats]

    def __len__(self) -> int:
        return len(self.values)

    @property
    def mean_wire_bytes(self) -> float:
        return sum(s.wire_bytes for s in self.stats) / len(self.stats)

    @property
    def mean_fields(self) -> float:
        return sum(s.scalar_fields for s in self.stats) / len(self.stats)

    @property
    def mean_nested(self) -> float:
        return sum(s.nested_messages for s in self.stats) / len(self.stats)

    @cached_property
    def round_trips(self) -> List[bool]:
        """Per message: its wire bytes decode back to its value.

        The codec check every pipeline reports as ``verified``.  It reads
        only the bench, so it runs once per bench, not once per pipeline.
        """
        return [
            decode_message(self.schema, wire) == value
            for value, wire in zip(self.values, self.encoded)
        ]

    @cached_property
    def layouts(self) -> List[ObjectLayout]:
        """Each message's host object layout, placed in order from a
        fresh ``SlabAllocator(seed=3)``: what the CXL.cache serializer
        walks, with or without its prefetcher."""
        allocator = SlabAllocator(seed=3)
        return [layout_message(self.schema, value, allocator) for value in self.values]


def make_bench(name: str, messages: int = 300, seed: int = 11) -> BenchWorkload:
    """Instantiate one bench with ``messages`` generated messages."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown bench {name!r}; options: {BENCH_NAMES}")
    schema = _BUILDERS[name]()
    rng = random.Random(seed * 1009 + BENCH_NAMES.index(name))
    string_bytes = _STRING_BYTES[name]
    values = [generate_message(schema, rng, string_bytes) for _ in range(messages)]
    encoded = [encode_message(schema, v) for v in values]
    stats = [_stats(schema, v, wire) for v, wire in zip(values, encoded)]
    return BenchWorkload(name, schema, values, encoded, stats)
