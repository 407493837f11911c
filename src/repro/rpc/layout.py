"""In-memory object layout of decoded messages.

The CXL.cache serialization path reads the host's in-memory C++ object
graph block by block.  A message is one block for its root object and
one per nested message, each its own allocation.  What the serializer
touches in a block, in order:

* a HOP at the block's base — a pointer chase into the block;
* DESCRIPTOR lines — strided reads over the block's field storage;
* BODY lines — the bulk bytes of string/bytes payloads.

A block's lines sit back to back, its k-th line at ``base + 64·k``, so
a layout is a trace of ``Block(base, descriptors, body_lines)`` tuples
in walk order (the root first, then nested blocks depth first), not of
lines.

Root objects come from a slab (consecutive messages sit at a regular
stride — prefetchable across messages); nested blocks come from a
fragmented heap with irregular gaps, which is why deep nesting defeats
the stride prefetcher.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Dict, List, NamedTuple

from repro.mem.address import CACHELINE
from repro.rpc.schema import FieldKind, MessageSchema


class UnitKind(enum.Enum):
    HOP = "hop"                  # serial pointer chase
    DESCRIPTOR = "descriptor"    # strided field-storage walk
    BODY = "body"                # bulk payload line


class Block(NamedTuple):
    """One message block: a HOP line at ``base``, then ``descriptors``
    DESCRIPTOR lines, then ``body_lines`` BODY lines."""

    base: int
    descriptors: int
    body_lines: int


@dataclass
class ObjectLayout:
    """Block trace for one message instance."""

    blocks: List[Block]

    def count(self, kind: UnitKind) -> int:
        if kind is UnitKind.HOP:
            return len(self.blocks)
        if kind is UnitKind.DESCRIPTOR:
            return sum(block.descriptors for block in self.blocks)
        return sum(block.body_lines for block in self.blocks)


class SlabAllocator:
    """Placement model: regular slab for roots, fragmented heap for
    nested blocks."""

    def __init__(self, seed: int = 3, slab_base: int = 0x9000_0000,
                 heap_base: int = 0xB000_0000) -> None:
        self._rng = random.Random(seed)
        self._slab = slab_base
        self._heap = heap_base

    def alloc_root(self, size: int) -> int:
        addr = self._slab
        self._slab += _round_line(size)
        return addr

    def alloc_nested(self, size: int) -> int:
        # Heap fragmentation: irregular padding between blocks.
        self._heap += self._rng.randrange(0, 4) * CACHELINE + CACHELINE
        addr = self._heap
        self._heap += _round_line(size)
        return addr


def _round_line(size: int) -> int:
    return -(-size // CACHELINE) * CACHELINE


FIELDS_PER_DESCRIPTOR = 10   # one descriptor line covers ~10 field slots


def layout_message(
    schema: MessageSchema,
    value: Dict,
    allocator: SlabAllocator,
    root: bool = True,
) -> ObjectLayout:
    """Walk a message instance and emit its block trace."""
    blocks: List[Block] = []
    _layout_block(schema, value, allocator, root, blocks)
    return ObjectLayout(blocks)


def _layout_block(
    schema: MessageSchema,
    value: Dict,
    allocator: SlabAllocator,
    root: bool,
    blocks: List[Block],
) -> None:
    scalar_fields = 0
    body_bytes = 0
    nested: List[tuple] = []
    for descriptor in schema.fields:
        if descriptor.name not in value:
            continue
        item = value[descriptor.name]
        if descriptor.kind == FieldKind.MESSAGE:
            nested.append((descriptor, item))
        else:
            scalar_fields += 1
            if descriptor.kind in (FieldKind.STRING, FieldKind.BYTES):
                body_bytes += len(item)

    descriptors = -(-scalar_fields // FIELDS_PER_DESCRIPTOR)
    body_lines = -(-body_bytes // CACHELINE)
    block_size = CACHELINE * (1 + descriptors + body_lines)
    base = allocator.alloc_root(block_size) if root else allocator.alloc_nested(block_size)
    blocks.append(Block(base, descriptors, body_lines))
    for descriptor, item in nested:
        _layout_block(descriptor.message, item, allocator, False, blocks)
