"""Tests for the set-associative cache array."""

import copy

import pytest

from repro.cache.array import CacheArray
from repro.cache.block import NO_SHARERS, CacheBlock, MesiState


def small_array():
    # 2 sets x 2 ways x 64B lines = 256 bytes.
    return CacheArray(size=256, ways=2, name="t")


def test_geometry():
    arr = small_array()
    assert arr.num_sets == 2


def test_bad_geometry_rejected():
    with pytest.raises(ValueError):
        CacheArray(size=100, ways=2)
    with pytest.raises(ValueError):
        CacheArray(size=0, ways=1)


def test_miss_then_hit():
    arr = small_array()
    assert arr.lookup(0) is None
    arr.insert(0, MesiState.EXCLUSIVE)
    assert arr.lookup(0) is not None
    assert arr.hits == 1
    assert arr.misses == 1


def test_same_line_different_offsets_hit():
    arr = small_array()
    arr.insert(0, MesiState.SHARED)
    assert arr.lookup(63) is not None


def test_lru_eviction():
    arr = small_array()
    # Set 0 holds lines 0 and 128 (two ways).
    arr.insert(0, MesiState.EXCLUSIVE)
    arr.insert(128, MesiState.EXCLUSIVE)
    arr.lookup(0)  # make line 0 most recent
    _block, victim = arr.insert(256, MesiState.EXCLUSIVE)
    assert victim is not None
    victim_addr, victim_block = victim
    assert victim_addr == 128


def test_dirty_eviction_counted():
    arr = small_array()
    arr.insert(0, MesiState.MODIFIED)
    arr.insert(128, MesiState.EXCLUSIVE)
    arr.lookup(128)
    _b, victim = arr.insert(256, MesiState.EXCLUSIVE)
    assert victim[1].dirty
    assert arr.dirty_evictions == 1


def test_locked_line_not_evicted():
    arr = small_array()
    b0, _ = arr.insert(0, MesiState.MODIFIED)
    b0.locked = True
    arr.insert(128, MesiState.EXCLUSIVE)
    _b, victim = arr.insert(256, MesiState.EXCLUSIVE)
    assert victim[0] == 128  # the unlocked way went instead


def test_deepcopy_gives_blocks_their_own_state():
    arr = small_array()
    block, _ = arr.insert(0, MesiState.SHARED)
    block.owner, block.sharers, block.locked = "dev0", frozenset({"dev1"}), True
    twin = copy.deepcopy(arr)
    copied = twin.peek(0)
    fields = ("tag", "state", "owner", "sharers", "last_touch", "locked")
    assert copied is not block
    assert [getattr(copied, f) for f in fields] == [getattr(block, f) for f in fields]
    # Sharer sets are immutable: the directory reassigns, never mutates.
    copied.sharers = copied.sharers | {"dev2"}
    assert block.sharers == {"dev1"}


def test_fresh_blocks_share_one_empty_sharer_set():
    first, second = CacheBlock(0), CacheBlock(1)
    assert first.sharers is second.sharers is NO_SHARERS
    assert isinstance(NO_SHARERS, frozenset) and not NO_SHARERS


def test_deepcopy_shares_the_sharer_set():
    block = CacheBlock(0, MesiState.SHARED)
    block.sharers = frozenset({"dev0", "dev1"})
    assert copy.deepcopy(block).sharers is block.sharers


def test_all_ways_locked_raises():
    arr = small_array()
    b0, _ = arr.insert(0, MesiState.MODIFIED)
    b1, _ = arr.insert(128, MesiState.MODIFIED)
    b0.locked = True
    b1.locked = True
    with pytest.raises(RuntimeError):
        arr.insert(256, MesiState.EXCLUSIVE)


def test_insert_existing_updates_state():
    arr = small_array()
    arr.insert(0, MesiState.SHARED)
    block, victim = arr.insert(0, MesiState.MODIFIED)
    assert victim is None
    assert block.state is MesiState.MODIFIED
    assert arr.occupancy == 1


def test_invalidate():
    arr = small_array()
    arr.insert(0, MesiState.EXCLUSIVE)
    old = arr.invalidate(0)
    assert old is not None
    assert arr.peek(0) is None
    assert arr.invalidate(0) is None


def test_insert_invalid_state_rejected():
    arr = small_array()
    with pytest.raises(ValueError):
        arr.insert(0, MesiState.INVALID)


def test_blocks_iteration_addresses():
    arr = small_array()
    arr.insert(64, MesiState.EXCLUSIVE)   # set 1
    arr.insert(128, MesiState.SHARED)     # set 0
    addrs = {addr for addr, _block in arr.blocks()}
    assert addrs == {64, 128}


def test_hit_rate_and_reset():
    arr = small_array()
    arr.insert(0, MesiState.EXCLUSIVE)
    arr.lookup(0)   # hit
    arr.lookup(64)  # miss
    assert arr.hit_rate == pytest.approx(0.5)
    arr.reset_stats()
    assert arr.hits == 0 and arr.misses == 0


def test_peek_does_not_touch_lru():
    arr = small_array()
    arr.insert(0, MesiState.EXCLUSIVE)
    arr.insert(128, MesiState.EXCLUSIVE)
    arr.peek(0)  # no LRU update: line 0 stays oldest
    _b, victim = arr.insert(256, MesiState.EXCLUSIVE)
    assert victim[0] == 0


# ----------------------------------------------------------------------
# Statistics contract (see the module docstring in cache/array.py)
# ----------------------------------------------------------------------

def test_lookup_without_touch_still_counts():
    arr = small_array()
    arr.insert(0, MesiState.EXCLUSIVE)
    arr.lookup(0, touch=False)
    arr.lookup(64, touch=False)
    assert arr.hits == 1
    assert arr.misses == 1


def test_lookup_count_false_leaves_stats_alone():
    arr = small_array()
    arr.insert(0, MesiState.EXCLUSIVE)
    assert arr.lookup(0, count=False) is not None
    assert arr.lookup(64, count=False) is None
    assert arr.hits == 0
    assert arr.misses == 0


def test_lookup_touch_false_does_not_update_lru():
    arr = small_array()
    arr.insert(0, MesiState.EXCLUSIVE)
    arr.insert(128, MesiState.EXCLUSIVE)
    arr.lookup(0, touch=False)  # counted, but line 0 stays oldest
    _b, victim = arr.insert(256, MesiState.EXCLUSIVE)
    assert victim[0] == 0


def test_peek_counts_no_stats():
    arr = small_array()
    arr.insert(0, MesiState.EXCLUSIVE)
    arr.peek(0)
    arr.peek(64)
    assert arr.hits == 0
    assert arr.misses == 0


def test_miss_then_fill_counts_one_miss():
    # The canonical controller sequence: a counted lookup miss, then
    # the fill when data returns.  Exactly one miss, zero hits.
    arr = small_array()
    assert arr.lookup(0) is None
    arr.insert(0, MesiState.EXCLUSIVE)
    assert arr.misses == 1
    assert arr.hits == 0
    assert arr.lookup(0) is not None
    assert arr.hits == 1
    assert arr.misses == 1


# ----------------------------------------------------------------------
# Power-of-two geometry and shift/mask indexing
# ----------------------------------------------------------------------

def test_non_power_of_two_sets_rejected():
    with pytest.raises(ValueError):
        CacheArray(size=3 * 2 * 64, ways=2)  # 3 sets


def test_non_power_of_two_line_rejected():
    with pytest.raises(ValueError):
        CacheArray(size=192, ways=2, line=48)


def test_index_tag_round_trip():
    # Each address lands in its own set, so nothing is evicted and
    # blocks() rebuilds every line address from its set index and tag.
    addrs = (0, 64, 63 + 128, 512 + 3 * 64, 0x12345_6740, (1 << 40) + 7 * 64 + 17)
    arr = CacheArray(size=1024, ways=1)  # 16 sets
    for addr in addrs:
        arr.insert(addr, MesiState.SHARED)
    assert {addr for addr, _b in arr.blocks()} == {(a // 64) * 64 for a in addrs}


def test_blocks_iterates_in_set_index_order():
    arr = CacheArray(size=1024, ways=2)  # 8 sets
    # Fill sets out of order; iteration must come back sorted by set.
    for addr in (7 * 64, 2 * 64, 5 * 64, 0):
        arr.insert(addr, MesiState.SHARED)
    indexes = [(addr // 64) % arr.num_sets for addr, _b in arr.blocks()]
    assert indexes == sorted(indexes)
