"""Tests for the multi-channel memory controller."""

import pytest

from repro.config.system import DramParams
from repro.mem.controller import MemoryController


def test_channels_split_traffic():
    ctrl = MemoryController(DramParams(), channels=2, seed=1)
    t = 10_000_000
    ctrl.access(0, t)
    ctrl.access(64, t)
    assert ctrl.channels[0].accesses == 1
    assert ctrl.channels[1].accesses == 1


@pytest.mark.parametrize("channels", [1, 2, 3])
def test_access_routes_like_the_interleaver(channels):
    """``access`` inlines ``Interleaver.map``: same channel, same local
    address (seen through the one bank the access occupies)."""
    ctrl = MemoryController(DramParams(), channels=channels, seed=1)
    for addr in (0, 63, 64, 24_576, 41_024, 1 << 20, (1 << 34) + 192):
        channel, local = ctrl.interleaver.map(addr)
        before = [ch.accesses for ch in ctrl.channels]
        free_before = [list(ch._bank_free_ps) for ch in ctrl.channels]
        ctrl.access(addr, 10_000_000)
        after = [ch.accesses for ch in ctrl.channels]
        assert [b - a for a, b in zip(before, after)] == [
            int(i == channel) for i in range(channels)
        ]
        occupied = [
            (i, bank)
            for i, ch in enumerate(ctrl.channels)
            for bank, free in enumerate(ch._bank_free_ps)
            if free != free_before[i][bank]
        ]
        assert occupied == [(channel, ctrl.channels[channel].bank_of(local))]


def test_controller_ii_backpressure():
    ctrl = MemoryController(DramParams(jitter_ps=0), channels=1, ii_ps=10_000, seed=1)
    t = 10_000_000
    first = ctrl.access(0, t)
    second = ctrl.access(1 << 20, t)
    # The second access waits one II before service.
    assert second >= first + 10_000 - 1


def test_latency_includes_wait():
    ctrl = MemoryController(DramParams(jitter_ps=0), channels=1, ii_ps=5_000, seed=1)
    t = 10_000_000
    ctrl.access(0, t)
    assert ctrl.access(2 << 20, t) >= 5_000


def test_access_returns_the_bank_latency_plus_the_wait():
    params = DramParams(jitter_ps=0)
    ctrl = MemoryController(params, channels=1, ii_ps=5_000, seed=1)
    t = params.trfc_ps  # dodge refresh
    first = ctrl.access(0, t)
    second = ctrl.access(params.row_bytes, t)  # the next bank: only the II wait
    assert type(first) is int and type(second) is int
    assert first == params.closed_access_ps
    assert second == 5_000 + params.closed_access_ps


def test_request_count():
    ctrl = MemoryController(DramParams(), channels=2, seed=1)
    for i in range(10):
        ctrl.access(i * 64, 10_000_000)
    assert ctrl.requests == 10


def test_reset():
    ctrl = MemoryController(DramParams(), channels=2, ii_ps=100, seed=1)
    ctrl.access(0, 10_000_000)
    ctrl.reset()
    assert ctrl.requests == 0
    assert all(ch.accesses == 0 for ch in ctrl.channels)
