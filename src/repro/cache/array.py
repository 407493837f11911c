"""Set-associative tag array with true-LRU replacement.

Geometry is required to be power-of-two in the line size and in the
number of sets (``size / (ways * line)``) so that set index and tag are
extracted with shifts and masks instead of division — the array sits on
the simulator's hottest path.  The way count itself need not be a power
of two.

Statistics contract
-------------------
* :meth:`lookup` counts **exactly one** hit or miss per call.  The
  ``touch`` flag only controls the LRU recency update: a
  ``lookup(addr, touch=False)`` probe still counts.  Pass
  ``count=False`` for a probe that should leave statistics alone.
* :meth:`peek` never counts statistics and never touches LRU state; it
  deliberately diverges from :meth:`lookup` so controllers can inspect
  directory state without perturbing measurements.
* :meth:`insert` never counts a hit or a miss — a fill that follows a
  counted ``lookup`` miss therefore does not double-count the miss.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.cache.block import CacheBlock, MesiState
from repro.mem.address import CACHELINE

# Module-level aliases: the probes below test ``state is not _INVALID``
# (and fills ``state is _MODIFIED``) inline rather than through the
# ``CacheBlock.valid``/``dirty`` properties.
_INVALID = MesiState.INVALID
_MODIFIED = MesiState.MODIFIED


class CacheArray:
    """Tag store: ``size`` bytes, ``ways``-way set associative.

    Operates on full physical addresses (internally line-aligned).  The
    array never evicts silently: ``insert`` returns the victim so the
    controller can act on dirty data.

    ``line`` and the derived set count must be powers of two (the way
    count may be arbitrary); index/tag extraction is shift-and-mask.
    Per-set stores are created lazily, so constructing a large array
    (e.g. a 96 MB LLC) is O(1).
    """

    def __init__(self, size: int, ways: int, line: int = CACHELINE, name: str = "cache") -> None:
        if size <= 0 or ways <= 0 or line <= 0:
            raise ValueError("size, ways and line must be positive")
        if size % (ways * line):
            raise ValueError("size must be a multiple of ways * line")
        if line & (line - 1):
            raise ValueError(f"line size must be a power of two (got {line})")
        num_sets = size // (ways * line)
        if num_sets & (num_sets - 1):
            raise ValueError(
                f"set count must be a power of two (got {num_sets} sets"
                f" from size={size}, ways={ways}, line={line})"
            )
        self.size = size
        self.ways = ways
        self.line = line
        self.name = name
        self.num_sets = num_sets
        self._line_shift = line.bit_length() - 1
        self._set_mask = num_sets - 1
        self._set_bits = num_sets.bit_length() - 1
        self._tag_shift = self._line_shift + self._set_bits
        # Set stores, keyed by set index and created on first fill.
        self._sets: Dict[int, Dict[int, CacheBlock]] = {}
        self._tick = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.dirty_evictions = 0

    def __deepcopy__(self, memo: dict) -> "CacheArray":
        # A forked system copies every warmed line; building the set
        # stores directly skips the generic protocol's dispatch per dict
        # and per int.  Every attribute but ``_sets`` is an int or a
        # str, so a shallow copy of the rest is exact.
        array = CacheArray.__new__(CacheArray)
        memo[id(self)] = array
        array.__dict__.update(self.__dict__)
        array._sets = {
            index: {
                tag: memo.get(id(block)) or block.__deepcopy__(memo)
                for tag, block in cache_set.items()
            }
            for index, cache_set in self._sets.items()
        }
        return array

    def lookup(self, addr: int, touch: bool = True, count: bool = True) -> Optional[CacheBlock]:
        """Return the valid block holding ``addr``, or None.

        Counts one hit or miss unless ``count=False``; ``touch``
        controls only the LRU recency update (see the module-level
        statistics contract).
        """
        shifted = addr >> self._line_shift
        cache_set = self._sets.get(shifted & self._set_mask)
        block = cache_set.get(shifted >> self._set_bits) if cache_set else None
        if block is not None and block.state is not _INVALID:
            if count:
                self.hits += 1
            if touch:
                self._tick += 1
                block.last_touch = self._tick
            return block
        if count:
            self.misses += 1
        return None

    def lookup_many(self, addrs, touch: bool = True, count: bool = True) -> int:
        """Bulk probe: one :meth:`lookup` per address, returns the hit count.

        Accepts any iterable of addresses, including a numpy int array
        (the :class:`~repro.workloads.vectorized.OpBatch` address
        column feeds this directly).  Statistics and LRU state end up
        exactly as ``sum(lookup(a, touch, count) is not None for a in
        addrs)`` would leave them — the aggregate contract the bulk
        workload paths rely on — with the per-call bookkeeping hoisted
        out of the loop.
        """
        if hasattr(addrs, "tolist"):
            addrs = addrs.tolist()
        line_shift = self._line_shift
        set_mask = self._set_mask
        set_bits = self._set_bits
        sets_get = self._sets.get
        tick = self._tick
        hits = 0
        probes = 0
        for addr in addrs:
            probes += 1
            shifted = addr >> line_shift
            cache_set = sets_get(shifted & set_mask)
            block = cache_set.get(shifted >> set_bits) if cache_set else None
            if block is not None and block.state is not _INVALID:
                hits += 1
                if touch:
                    tick += 1
                    block.last_touch = tick
        self._tick = tick
        if count:
            self.hits += hits
            self.misses += probes - hits
        return hits

    def peek(self, addr: int) -> Optional[CacheBlock]:
        """Lookup without statistics or LRU update."""
        shifted = addr >> self._line_shift
        cache_set = self._sets.get(shifted & self._set_mask)
        block = cache_set.get(shifted >> self._set_bits) if cache_set else None
        if block is not None and block.state is not _INVALID:
            return block
        return None

    def insert(
        self, addr: int, state: MesiState
    ) -> Tuple[CacheBlock, Optional[Tuple[int, CacheBlock]]]:
        """Fill ``addr`` with ``state``; returns ``(block, victim)``.

        ``victim`` is ``(victim_addr, victim_block)`` when a valid line
        had to be replaced, else None.  Locked lines are never chosen as
        victims; inserting into a set whose lines are all locked raises.
        Fills never count hit/miss statistics.
        """
        if state is _INVALID:
            raise ValueError("cannot insert an invalid line")
        shifted = addr >> self._line_shift
        index, tag = shifted & self._set_mask, shifted >> self._set_bits
        cache_set = self._sets.get(index)
        if cache_set is None:
            cache_set = self._sets[index] = {}
        self._tick += 1
        existing = cache_set.get(tag)
        if existing is not None and existing.state is not _INVALID:
            existing.state = state
            existing.last_touch = self._tick
            return existing, None

        victim_info: Optional[Tuple[int, CacheBlock]] = None
        if len(cache_set) >= self.ways:
            # Least recently used unlocked line; the first one on ties.
            victim = None
            for candidate in cache_set.values():
                if not candidate.locked and (
                    victim is None or candidate.last_touch < victim.last_touch
                ):
                    victim = candidate
            if victim is None:
                raise RuntimeError(
                    f"{self.name}: all ways locked in set {index}, cannot fill"
                )
            victim_addr = self._block_addr(index, victim.tag)
            del cache_set[victim.tag]
            if victim.state is not _INVALID:
                self.evictions += 1
                if victim.state is _MODIFIED:
                    self.dirty_evictions += 1
                victim_info = (victim_addr, victim)

        block = CacheBlock(tag, state)
        block.last_touch = self._tick
        cache_set[tag] = block
        return block, victim_info

    def invalidate(self, addr: int) -> Optional[CacheBlock]:
        """Drop the line holding ``addr``; returns the old block if valid."""
        shifted = addr >> self._line_shift
        cache_set = self._sets.get(shifted & self._set_mask)
        if cache_set is None:
            return None
        block = cache_set.pop(shifted >> self._set_bits, None)
        if block is not None and block.state is not _INVALID:
            return block
        return None

    def _block_addr(self, index: int, tag: int) -> int:
        return ((tag << self._set_bits) | index) << self._line_shift

    def blocks(self) -> Iterator[Tuple[int, CacheBlock]]:
        """Iterate ``(line_addr, block)`` over all valid lines.

        Iterates sets in index order so traversal order is deterministic
        regardless of fill order.
        """
        for index in sorted(self._sets):
            for tag, block in self._sets[index].items():
                if block.valid:
                    yield self._block_addr(index, tag), block

    @property
    def occupancy(self) -> int:
        return sum(1 for _addr, _block in self.blocks())

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.dirty_evictions = 0
