"""Cacheline blocks and MESI stable states."""

from __future__ import annotations

import enum
from typing import Optional, Set


class MesiState(enum.Enum):
    """Stable MESI states used by every cache in the hierarchy."""

    INVALID = "I"
    SHARED = "S"
    EXCLUSIVE = "E"
    MODIFIED = "M"

    @property
    def readable(self) -> bool:
        return self is not MesiState.INVALID

    @property
    def writable(self) -> bool:
        return self in (MesiState.EXCLUSIVE, MesiState.MODIFIED)

    @property
    def dirty(self) -> bool:
        return self is MesiState.MODIFIED


class CacheBlock:
    """One cacheline's tag-store entry.

    ``owner`` and ``sharers`` carry the embedded directory metadata that
    the paper stores in LLC tags (CacheState / ID / sharer bit-vector);
    they are unused by private caches.
    """

    __slots__ = ("tag", "state", "owner", "sharers", "last_touch", "locked")

    def __init__(self, tag: int, state: MesiState = MesiState.INVALID) -> None:
        self.tag = tag
        self.state = state
        self.owner: Optional[str] = None
        self.sharers: Set[str] = set()
        self.last_touch = 0
        self.locked = False  # RAO PEs lock lines during read-modify-write

    def __deepcopy__(self, memo: dict) -> "CacheBlock":
        # A forked system copies thousands of blocks; copying the slots
        # directly is several times cheaper than the generic protocol.
        # ``owner`` is a peer id string and ``state`` an enum member, so
        # only ``sharers`` needs a copy of its own.
        block = CacheBlock.__new__(CacheBlock)
        block.tag = self.tag
        block.state = self.state
        block.owner = self.owner
        block.sharers = set(self.sharers)
        block.last_touch = self.last_touch
        block.locked = self.locked
        memo[id(self)] = block
        return block

    @property
    def valid(self) -> bool:
        return self.state is not MesiState.INVALID

    @property
    def dirty(self) -> bool:
        return self.state.dirty

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CacheBlock(tag={self.tag:#x}, {self.state.value},"
            f" owner={self.owner}, sharers={sorted(self.sharers)})"
        )
