"""Tests for address ranges and interleaving."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.mem.address import (
    AddressRange,
    CACHELINE,
    LINE_MASK,
    Interleaver,
    line_base,
    line_offset,
    split_evenly,
)


def test_line_helpers():
    assert line_base(0) == 0
    assert line_base(63) == 0
    assert line_base(64) == 64
    assert line_offset(65) == 1


@given(st.integers(min_value=-(1 << 96), max_value=1 << 96))
@example(0)
@example(-1)
@example(-CACHELINE)
@example((1 << 64) + 65)
@example(-(1 << 64) - 1)
def test_line_mask_matches_line_base(addr):
    """The hot paths align with ``addr & LINE_MASK``: the same line as
    ``line_base`` for negative, zero and wider-than-64-bit ints."""
    assert addr & LINE_MASK == line_base(addr)


def test_range_contains_and_offset():
    r = AddressRange(0x1000, 0x2000, "r")
    assert r.contains(0x1000)
    assert not r.contains(0x2000)
    assert r.size == 0x1000
    assert r.offset(0x1800) == 0x800
    with pytest.raises(ValueError):
        r.offset(0x2000)


def test_range_empty_rejected():
    with pytest.raises(ValueError):
        AddressRange(10, 10)


def test_range_overlap():
    a = AddressRange(0, 100)
    b = AddressRange(50, 150)
    c = AddressRange(100, 200)
    assert a.overlaps(b)
    assert not a.overlaps(c)


def test_interleaver_alternates_channels():
    inter = Interleaver(2)
    channels = [inter.map(i * CACHELINE)[0] for i in range(4)]
    assert channels == [0, 1, 0, 1]


def test_interleaver_roundtrip():
    inter = Interleaver(3, granule=128)
    for addr in (0, 64, 127, 128, 5_000, 123_456):
        channel, local = inter.map(addr)
        assert inter.unmap(channel, local) == addr


def test_interleaver_bad_params():
    with pytest.raises(ValueError):
        Interleaver(0)
    with pytest.raises(ValueError):
        Interleaver(2, granule=100)  # not a cacheline multiple
    inter = Interleaver(2)
    with pytest.raises(ValueError):
        inter.unmap(5, 0)


def test_split_evenly():
    region = AddressRange(0, 1000, "host")
    parts = split_evenly(region, 3)
    assert len(parts) == 3
    assert parts[0].start == 0
    assert parts[-1].end == 1000
    total = sum(p.size for p in parts)
    assert total == 1000
    for left, right in zip(parts, parts[1:]):
        assert left.end == right.start


def test_split_bad_parts():
    with pytest.raises(ValueError):
        split_evenly(AddressRange(0, 10), 0)
    with pytest.raises(ValueError):
        split_evenly(AddressRange(0, 2), 5)
