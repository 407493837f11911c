"""Tests for the DCOH: calibrated D2H paths and the NC-P flow."""

import dataclasses

import pytest

from repro.cache.block import MesiState
from repro.calibration.microbench import CxlTestbench
from repro.config import asic_system, fpga_system
from repro.cxl.transactions import DcohResult


def build(config=None):
    return CxlTestbench(config or fpga_system())


def read_once(tb, addr, exclusive=False):
    results = []
    tb.device.dcoh.read(addr, results.append, exclusive=exclusive)
    tb.sim.run()
    assert len(results) == 1
    return results[0], tb.sim.now


def test_hmc_hit_path_latency():
    tb = build()
    tb.device.hmc.fill(0x1000)
    start = tb.sim.now
    result, end = read_once(tb, 0x1000)
    assert result.hmc_hit
    dcoh_only = tb.config.device.hmc_hit_ps - tb.config.device.cycles_ps(
        tb.config.device.lsu_issue_cycles + tb.config.device.lsu_complete_cycles
    )
    assert end - start == dcoh_only


def test_hmc_hits_deliver_one_shared_result():
    """A result is built once per outcome, frozen and shared."""
    tb = build()
    tb.device.hmc.fill(0x1000)
    tb.device.hmc.fill(0x1040)
    first, _ = read_once(tb, 0x1000)
    second, _ = read_once(tb, 0x1040)
    assert first is second
    assert isinstance(first, DcohResult)
    assert (first.hmc_hit, first.llc_hit, first.dirty_victim) == (True, False, False)
    assert not hasattr(first, "addr")
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.hmc_hit = False


def test_misses_with_one_outcome_share_their_result():
    tb = build()
    first, _ = read_once(tb, 0x3000)
    second, _ = read_once(tb, 0x3040)
    assert first is second
    assert first.mem_hit and not first.dirty_victim


def test_llc_hit_flagged():
    tb = build()
    tb.llc.demote(0x2000)
    result, _ = read_once(tb, 0x2000)
    assert not result.hmc_hit
    assert result.llc_hit
    assert not result.mem_hit


def test_mem_hit_flagged():
    tb = build()
    result, _ = read_once(tb, 0x3000)
    assert result.mem_hit


def test_fill_state_matches_request():
    tb = build()
    read_once(tb, 0x4000, exclusive=False)
    assert tb.device.hmc.peek(0x4000).state is MesiState.SHARED
    read_once(tb, 0x5000, exclusive=True)
    assert tb.device.hmc.peek(0x5000).state is MesiState.EXCLUSIVE


def test_shared_line_upgrade_goes_to_host():
    tb = build()
    read_once(tb, 0x6000, exclusive=False)
    result, _ = read_once(tb, 0x6000, exclusive=True)
    assert not result.hmc_hit  # S copy is not enough for ownership


def test_write_marks_modified():
    tb = build()
    results = []
    tb.device.dcoh.write(0x7000, results.append)
    tb.sim.run()
    assert tb.device.hmc.peek(0x7000).state is MesiState.MODIFIED


def test_dirty_victim_reported_and_written_back():
    tb = build()
    hmc = tb.device.hmc
    set_stride = hmc.array.num_sets * 64
    # Fill one set with dirty lines.
    for way in range(hmc.array.ways):
        done = []
        tb.device.dcoh.write(way * set_stride, done.append)
        tb.sim.run()
    result, _ = read_once(tb, hmc.array.ways * set_stride, exclusive=True)
    assert result.dirty_victim
    tb.sim.run()  # let the async DirtyEvict drain
    assert tb.llc.writebacks >= 0  # data landed back in the LLC/memory path


def test_nc_push_invalidates_hmc_and_fills_llc():
    tb = build()
    tb.device.hmc.fill(0x8000, MesiState.EXCLUSIVE)
    tb.device.hmc.mark_modified(0x8000)
    done = []
    tb.device.dcoh.nc_push(0x8000, lambda: done.append(True))
    tb.sim.run()
    assert done == [True]
    assert tb.device.hmc.peek(0x8000) is None
    assert tb.llc.holds(0x8000)


def test_explicit_evict_dirty():
    tb = build()
    results = []
    tb.device.dcoh.write(0x9000, results.append)
    tb.sim.run()
    done = []
    tb.device.dcoh.evict(0x9000, lambda: done.append(True))
    tb.sim.run()
    assert done == [True]
    assert tb.device.hmc.peek(0x9000) is None


def test_evict_absent_is_noop():
    tb = build()
    done = []
    tb.device.dcoh.evict(0xA000, lambda: done.append(True))
    tb.sim.run()
    assert done == [True]


def test_numa_extra_distance_added():
    cfg = fpga_system()
    base_tb = build(cfg)
    base_result = base_tb.latency_mem_hit(trials=2, node=7)
    far_tb = build(cfg)
    far_result = far_tb.latency_mem_hit(trials=2, node=3)
    delta = far_result.median_ns - base_result.median_ns
    assert delta == pytest.approx(88.0, abs=8.0)
