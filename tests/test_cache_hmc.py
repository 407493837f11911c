"""Tests for the device host-memory cache."""

import pytest

from repro.cache.block import MesiState
from repro.cache.hmc import HostMemoryCache
from repro.cache.messages import MessageType
from repro.config.presets import ASIC_1500, FPGA_400
from repro.sim.engine import Simulator


def make_hmc(profile=FPGA_400):
    return HostMemoryCache(Simulator(), profile)


def test_capacity_matches_profile():
    hmc = make_hmc()
    # 128 KB / (64 B x 4 ways) = 512 sets.
    assert hmc.array.num_sets == 512
    assert hmc.array.ways == 4


def test_timing_helpers():
    hmc = make_hmc()
    assert hmc.tag_ps == FPGA_400.cycles_ps(FPGA_400.hmc_tag_cycles)
    assert hmc.data_ps == FPGA_400.cycles_ps(FPGA_400.hmc_data_cycles)


def test_service_interval_throttles():
    hmc = make_hmc(ASIC_1500)
    s1 = hmc.service_start(0)
    s2 = hmc.service_start(0)
    assert s2 - s1 == ASIC_1500.hmc_service_ii_ps


def test_fill_lookup_invalidate():
    hmc = make_hmc()
    hmc.fill(0x1000)
    assert hmc.array.lookup(0x1000) is not None
    hmc.invalidate(0x1000)
    assert hmc.peek(0x1000) is None


def test_mark_modified():
    hmc = make_hmc()
    hmc.fill(0x1000, MesiState.EXCLUSIVE)
    hmc.mark_modified(0x1000)
    assert hmc.peek(0x1000).state is MesiState.MODIFIED
    with pytest.raises(LookupError):
        hmc.mark_modified(0x9000)


def test_lock_prevents_eviction():
    hmc = make_hmc()
    set_stride = hmc.array.num_sets * 64
    base = 0x0
    # Fill one set completely.
    for way in range(4):
        hmc.fill(base + way * set_stride)
    hmc.lock(base)
    hmc.fill(base + 4 * set_stride)
    assert hmc.peek(base) is not None  # locked line survived


def test_lock_absent_raises():
    hmc = make_hmc()
    with pytest.raises(LookupError):
        hmc.lock(0x4000)


def test_snoop_inv_dirty_forwards():
    hmc = make_hmc()
    hmc.fill(0x2000, MesiState.EXCLUSIVE)
    hmc.mark_modified(0x2000)
    assert hmc.snoop(MessageType.SNP_INV, 0x2000) is MessageType.RSP_I_FWD_M
    assert hmc.peek(0x2000) is None


def test_snoop_data_downgrade():
    hmc = make_hmc()
    hmc.fill(0x3000, MesiState.EXCLUSIVE)
    assert hmc.snoop(MessageType.SNP_DATA, 0x3000) is MessageType.RSP_I
    assert hmc.peek(0x3000).state is MesiState.SHARED


def test_snoop_clears_lock():
    hmc = make_hmc()
    hmc.fill(0x4000, MesiState.EXCLUSIVE)
    hmc.lock(0x4000)
    hmc.snoop(MessageType.SNP_INV, 0x4000)
    assert hmc.peek(0x4000) is None
