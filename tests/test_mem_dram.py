"""Tests for the DDR5 bank model."""

import random

import pytest

from repro.config.system import DramParams
from repro.mem.dram import DramBankModel


def make_model(**kwargs):
    return DramBankModel(DramParams(**kwargs), seed=1)


def test_access_latency_near_closed_page_cost():
    params = DramParams(jitter_ps=0)
    model = DramBankModel(params, seed=1)
    # Issue outside the refresh window (which opens at phase 0).
    assert model.access(0, now_ps=params.trfc_ps) == params.closed_access_ps
    assert model.refresh_collisions == 0


def test_jitter_bounded():
    params = DramParams()
    # Fresh model per sample: no queueing, no refresh interference.
    for i in range(50):
        model = DramBankModel(params, seed=100 + i)
        latency = model.access(0, now_ps=params.trfc_ps + 1_000)
        assert model.refresh_collisions == 0
        assert abs(latency - params.closed_access_ps) <= params.jitter_ps


@pytest.mark.parametrize("jitter_ps", [0, 1, 4_000])
@pytest.mark.parametrize("seed", [1, 7, 1234, 2**40 + 3])
def test_jitter_draw_matches_randint(jitter_ps, seed):
    """The unrolled jitter draw is ``Random.randint(-j, j)`` exactly: the
    same values and the same RNG state after them, on every Python the
    CI runs (a change to CPython's rejection loop would show here)."""
    params = DramParams(jitter_ps=jitter_ps)
    model = DramBankModel(params, seed=seed)
    reference = random.Random(seed)
    for i in range(500):
        # Outside every refresh window, on an idle bank: only jitter.
        now = params.trfc_ps + i * params.trefi_ps
        jitter = reference.randint(-jitter_ps, jitter_ps)
        expected = max(params.row_hit_ps, params.closed_access_ps + jitter)
        assert model.access(i * 64, now) == expected
    assert model._rng.getstate() == reference.getstate()


class ReferenceBankModel:
    """The bank model as first written, through ``bank_of``,
    ``_refresh_penalty`` and ``max``; the model inlines all three."""

    def __init__(self, params, seed):
        self.params = params
        self.rng = random.Random(seed)
        self.bank_free_ps = [0] * params.banks
        self.refresh_collisions = 0

    def bank_of(self, addr):
        return (addr // self.params.row_bytes) % self.params.banks

    def _refresh_penalty(self, now_ps):
        phase = now_ps % self.params.trefi_ps
        if phase < self.params.trfc_ps:
            return self.params.trfc_ps - phase
        return 0

    def access(self, addr, now_ps):
        bank = self.bank_of(addr)
        start = max(now_ps, self.bank_free_ps[bank])
        refresh = self._refresh_penalty(start)
        if refresh:
            self.refresh_collisions += 1
            start += refresh
        jitter = self.rng.randint(-self.params.jitter_ps, self.params.jitter_ps)
        service = max(self.params.row_hit_ps, self.params.closed_access_ps + jitter)
        self.bank_free_ps[bank] = start + self.params.burst_ps
        return start + service - now_ps


@pytest.mark.parametrize("jitter_ps", [0, 1, 4_000])
def test_access_matches_the_reference_formulation(jitter_ps):
    """Accesses that straddle refresh windows and queue on busy banks
    give the reference's latencies, counters and RNG state."""
    params = DramParams(jitter_ps=jitter_ps)
    model = DramBankModel(params, seed=5)
    reference = ReferenceBankModel(params, seed=5)
    trefi, trfc = params.trefi_ps, params.trfc_ps
    # Around each window edge: just before it opens (a busy bank pushes
    # the start inside), at its first and last picosecond, and after it.
    offsets = (-3_000, -1, 0, 1, trfc // 2, trfc - 1, trfc, trfc + 1)
    row = params.row_bytes
    latencies, collided = [], []
    for window in range(1, 4):
        for k, offset in enumerate(offsets):
            now = window * trefi + offset
            # An idle bank starts at ``now`` itself; the line after it
            # shares that bank, so it queues; the next row is another bank.
            base = 2 * k * row
            for addr in (base, base + 64, base + row, base):
                before = model.refresh_collisions
                got = model.access(addr, now)
                assert got == reference.access(addr, now)
                assert type(got) is int
                assert model.refresh_collisions == reference.refresh_collisions
                latencies.append(got)
                collided.append(model.refresh_collisions - before)
    assert model._rng.getstate() == reference.rng.getstate()
    assert model._bank_free_ps == reference.bank_free_ps
    # The schedule exercises both edges and a queued bank.
    assert any(collided)
    assert not all(collided)
    assert any(latency > params.closed_access_ps + jitter_ps for latency in latencies)


def test_refresh_collision_detected():
    params = DramParams(jitter_ps=0)
    model = DramBankModel(params, seed=1)
    # now = 0 lands inside the first refresh window [0, trfc).
    assert model.access(0, now_ps=0) == params.trfc_ps + params.closed_access_ps
    assert model.refresh_collisions == 1
    model2 = DramBankModel(params, seed=1)
    assert model2.access(0, now_ps=params.trfc_ps) == params.closed_access_ps
    assert model2.refresh_collisions == 0


def test_access_returns_an_int_latency():
    model = make_model()
    assert type(model.access(0, 10_000_000)) is int


def test_bank_mapping():
    params = DramParams()
    model = DramBankModel(params, seed=1)
    assert model.bank_of(0) == 0
    assert model.bank_of(params.row_bytes) == 1
    assert model.bank_of(params.row_bytes * params.banks) == 0


def test_bank_occupancy_is_burst_not_latency():
    """Back-to-back same-bank accesses serialize on the burst only."""
    params = DramParams(jitter_ps=0)
    model = DramBankModel(params, seed=1)
    t = params.trfc_ps  # dodge refresh
    model.access(0, t)
    second = model.access(64, t)  # same bank
    assert second == params.burst_ps + params.closed_access_ps


def test_derived_timings():
    p = DramParams()
    assert p.closed_access_ps == p.trcd_ps + p.tcl_ps + p.burst_ps
    assert p.row_hit_ps < p.closed_access_ps < p.row_conflict_ps


def test_reset():
    model = make_model()
    model.access(0, 10_000_000)
    model.reset()
    assert model.accesses == 0
    assert model.refresh_collisions == 0
