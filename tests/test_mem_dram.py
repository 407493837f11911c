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
    result = model.access(0, now_ps=params.trfc_ps)
    assert result.latency_ps == params.closed_access_ps
    assert not result.refresh_collision


def test_jitter_bounded():
    params = DramParams()
    # Fresh model per sample: no queueing, no refresh interference.
    for i in range(50):
        model = DramBankModel(params, seed=100 + i)
        r = model.access(0, now_ps=params.trfc_ps + 1_000)
        assert not r.refresh_collision
        assert abs(r.latency_ps - params.closed_access_ps) <= params.jitter_ps


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
        assert model.access(i * 64, now).latency_ps == expected
    assert model._rng.getstate() == reference.getstate()


def test_refresh_collision_detected():
    params = DramParams(jitter_ps=0)
    model = DramBankModel(params, seed=1)
    # now = 0 lands inside the first refresh window [0, trfc).
    r = model.access(0, now_ps=0)
    assert r.refresh_collision
    assert r.latency_ps == params.trfc_ps + params.closed_access_ps
    model2 = DramBankModel(params, seed=1)
    r2 = model2.access(0, now_ps=params.trfc_ps)
    assert not r2.refresh_collision


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
    first = model.access(0, t)
    second = model.access(64, t)  # same bank
    assert second.latency_ps == params.burst_ps + params.closed_access_ps


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
