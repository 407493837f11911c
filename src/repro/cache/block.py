"""Cacheline blocks and MESI stable states."""

from __future__ import annotations

import enum
from typing import FrozenSet, Optional


class MesiState(enum.Enum):
    """Stable MESI states used by every cache in the hierarchy."""

    INVALID = "I"
    SHARED = "S"
    EXCLUSIVE = "E"
    MODIFIED = "M"

    # Members are singletons, so identity hashing is exact, and it keeps
    # the hot dict and set probes keyed by a state out of the Python-level
    # ``Enum.__hash__``.
    __hash__ = object.__hash__

    @property
    def readable(self) -> bool:
        return self is not MesiState.INVALID

    @property
    def writable(self) -> bool:
        return self in (MesiState.EXCLUSIVE, MesiState.MODIFIED)

    @property
    def dirty(self) -> bool:
        return self is MesiState.MODIFIED


#: The sharer set of every block that has no sharers.
NO_SHARERS: FrozenSet[str] = frozenset()


class CacheBlock:
    """One cacheline's tag-store entry.

    ``owner`` and ``sharers`` carry the embedded directory metadata that
    the paper stores in LLC tags (CacheState / ID / sharer bit-vector);
    they are unused by private caches.  ``sharers`` is immutable: the
    directory assigns a new frozenset instead of mutating it, and every
    block without sharers holds the one :data:`NO_SHARERS`.
    """

    __slots__ = ("tag", "state", "owner", "sharers", "last_touch", "locked")

    def __init__(self, tag: int, state: MesiState = MesiState.INVALID) -> None:
        self.tag = tag
        self.state = state
        self.owner: Optional[str] = None
        self.sharers: FrozenSet[str] = NO_SHARERS
        self.last_touch = 0
        self.locked = False  # RAO PEs lock lines during read-modify-write

    def __deepcopy__(self, memo: dict) -> "CacheBlock":
        # A forked system copies thousands of blocks; copying the slots
        # directly is several times cheaper than the generic protocol.
        # ``owner`` is a peer id string, ``state`` an enum member and
        # ``sharers`` a frozenset, so the copy shares all three.
        block = CacheBlock.__new__(CacheBlock)
        block.tag = self.tag
        block.state = self.state
        block.owner = self.owner
        block.sharers = self.sharers
        block.last_touch = self.last_touch
        block.locked = self.locked
        memo[id(self)] = block
        return block

    @property
    def valid(self) -> bool:
        return self.state is not MesiState.INVALID

    @property
    def dirty(self) -> bool:
        return self.state is MesiState.MODIFIED

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CacheBlock(tag={self.tag:#x}, {self.state.value},"
            f" owner={self.owner}, sharers={sorted(self.sharers)})"
        )
