"""Tests for the NIC RAO designs: correctness and timing shape."""

import gc
import weakref

import pytest

from repro.cache.block import MesiState
from repro.cache.llc import SharedLLC
from repro.config import asic_system
from repro.config.system import DramParams
from repro.mem.address import AddressRange
from repro.mem.controller import MemoryController
from repro.mem.interface import MemoryInterface
from repro.nic.base import HostValues, MemoryTranslationTable
from repro.nic.cxl_nic import CxlRaoNic
from repro.nic.pcie_nic import PcieRaoNic
from repro.rao.circustent import RaoRequest, make_workload
from repro.rao.harness import run_rao_comparison
from repro.rao.ops import AtomicOp
from repro.sim.engine import Simulator
from repro.system import SystemBuilder


def cxl_nic(pe_count=1):
    config = asic_system()
    sim = Simulator()
    memif = MemoryInterface(config.host.memif_oneway_ps)
    memif.attach(
        "host",
        AddressRange(0, 1 << 40, "host"),
        MemoryController(DramParams(jitter_ps=0), channels=2, seed=1),
    )
    llc = SharedLLC(sim, config.host, memif)
    return CxlRaoNic(sim, config, llc, HostValues(), pe_count=pe_count)


def faa_requests(addr, count):
    return [RaoRequest(AtomicOp.FAA, addr, operand=1) for _ in range(count)]


# ----------------------------- Correctness ----------------------------
def test_pcie_nic_faa_sums_correctly():
    nic = PcieRaoNic(Simulator(), asic_system(), HostValues())
    nic.run(faa_requests(0x1000, 25))
    assert nic.values.read(0x1000) == 25


def test_cxl_nic_faa_sums_correctly():
    nic = cxl_nic()
    nic.run(faa_requests(0x1000, 25))
    assert nic.values.read(0x1000) == 25


def test_both_nics_agree_on_mixed_ops():
    requests = [
        RaoRequest(AtomicOp.FAA, 0x1000, operand=5),
        RaoRequest(AtomicOp.SWAP, 0x1040, operand=9),
        RaoRequest(AtomicOp.FETCH_AND_OR, 0x1000, operand=0x10),
        RaoRequest(AtomicOp.FAA, 0x1040, operand=2),
    ]
    pcie = PcieRaoNic(Simulator(), asic_system(), HostValues())
    pcie.run([RaoRequest(r.op, r.target, r.operand) for r in requests])
    cxl = cxl_nic()
    cxl.run([RaoRequest(r.op, r.target, r.operand) for r in requests])
    assert pcie.values.snapshot() == cxl.values.snapshot()


def test_cxl_nic_concurrent_pes_preserve_atomicity():
    """CENTRAL-style contention with 4 PEs must still sum exactly."""
    nic = cxl_nic(pe_count=4)
    nic.run(faa_requests(0x2000, 64))
    assert nic.values.read(0x2000) == 64


# ------------------------------- Timing -------------------------------
def test_pcie_rao_serialized_cost():
    """Alone on its DMA engine, each transfer starts as the previous one
    completes: a RAO costs its RX/TX stages, one transfer per index
    load, the read/write pair and the ALU op, on FAA and SG streams."""
    config = asic_system()
    for requests in (faa_requests(0x1000, 16), make_workload("SG", ops=16).requests):
        nic = PcieRaoNic(Simulator(), config, HostValues())
        result = nic.run(requests)
        loads = sum(len(request.reads) for request in requests)
        transfers = loads + 2 * len(requests)
        assert result.elapsed_ps == (
            len(requests) * (config.rao.request_proc_ps + config.rao.modify_ps)
            + transfers * config.dma.transfer_ps(64)
        )
        assert (result.reads_issued, result.writes_issued) == (
            loads + len(requests), len(requests)
        )
        assert (nic.dma.transfers, nic.dma.bytes_moved) == (transfers, 64 * transfers)
        assert nic.responses_sent == len(requests)
        assert result.throughput_mops < 0.5


def test_cxl_rao_central_is_cache_resident():
    nic = cxl_nic()
    result = nic.run(faa_requests(0x1000, 64))
    assert nic.hmc_hits >= 63  # everything after the first fetch hits
    assert result.throughput_mops > 10


def test_cxl_rao_line_unlocked_after_commit():
    nic = cxl_nic()
    nic.run(faa_requests(0x3000, 4))
    assert not nic.hmc.peek(0x3000).locked


def test_warm_fills_hmc_dirty():
    nic = cxl_nic()
    nic.warm()
    lines = nic.hmc.array.num_sets * nic.hmc.array.ways
    assert nic.hmc.array.occupancy == lines
    dirty = sum(1 for _a, b in nic.hmc.array.blocks() if b.dirty)
    assert dirty == lines


def test_reads_issued_counts_only_the_run():
    """SG reads three indices and the target per op on either NIC; the
    CXL NIC's warm-up reads and an earlier run's transfers must not be
    reported as the run's."""
    requests = make_workload("SG", ops=64).requests
    pcie = PcieRaoNic(Simulator(), asic_system(), HostValues())
    cxl = cxl_nic()
    cxl.warm()
    for _ in range(2):
        result = pcie.run(requests)
        assert (result.reads_issued, result.writes_issued) == (256, 64)
    assert cxl.run(requests).reads_issued == 256


def test_pe_parallelism_improves_miss_throughput():
    random_reqs = make_workload("RAND", ops=128).requests
    serial = cxl_nic(pe_count=1)
    serial.warm()
    t1 = serial.run(list(random_reqs)).throughput_mops
    parallel = cxl_nic(pe_count=4)
    parallel.warm()
    t4 = parallel.run(list(random_reqs)).throughput_mops
    assert t4 > 2 * t1  # misses overlap across PEs


# ------------------------------- MTT ----------------------------------
def test_mtt_translation_and_cache():
    mtt = MemoryTranslationTable(cache_entries=2)
    mtt.register(1, base=0x1000, size=0x100)
    assert mtt.translate(1, 0x10) == 0x1010
    assert mtt.translate(1, 0x20) == 0x1020
    assert mtt.hits == 1 and mtt.misses == 1


def test_mtt_bounds_checked():
    mtt = MemoryTranslationTable()
    mtt.register(1, base=0x1000, size=0x100)
    with pytest.raises(ValueError):
        mtt.translate(1, 0x100)
    with pytest.raises(KeyError):
        mtt.translate(2, 0)


def test_mtt_duplicate_key_rejected():
    mtt = MemoryTranslationTable()
    mtt.register(1, 0, 64)
    with pytest.raises(ValueError):
        mtt.register(1, 64, 64)


# ------------------------- Ownership and memory ------------------------
def test_shared_fill_keeps_the_line_its_own_write_made_modified():
    """A read that missed before the same device's RdOwn filled the line
    lands on it in M; its fill must not demote the line to S."""
    nic = cxl_nic()
    done = []
    nic.dcoh.write(0x1000, lambda _result: done.append(nic.sim.now))
    nic.dcoh.read(0x1000, lambda _result: done.append(nic.sim.now))
    nic.sim.run()
    assert done[0] == 390_075  # the write completes first, in M
    assert nic.hmc.peek(0x1000).state is MesiState.MODIFIED


@pytest.mark.parametrize("pe_count", [2, 4, 8])
def test_ptrchase_values_match_the_serial_nic(pe_count):
    """Each PTRCHASE request reads the previous one's target, which
    another PE may be taking with RdOwn: that read's fill must not
    demote the line, so the swaps end where the serial PCIe NIC's do."""
    results = run_rao_comparison(
        asic_system(), patterns=("PTRCHASE",), ops=8, pe_count=pe_count
    )
    assert results["PTRCHASE"].cxl_mops > 0
    requests = make_workload("PTRCHASE", ops=64).requests
    pcie = PcieRaoNic(Simulator(), asic_system(), HostValues())
    pcie.run(requests)
    cxl = cxl_nic(pe_count=pe_count)
    cxl.warm()
    cxl.run(requests)
    assert cxl.values.snapshot() == pcie.values.snapshot()


def _dies_on_del(make_system, nic_name, requests) -> bool:
    """Run ``requests`` on a new system; are it, its NIC and engine gone on ``del``?"""
    system = make_system()
    nic = system.node(nic_name)
    nic.run(requests)
    refs = [weakref.ref(system), weakref.ref(nic), weakref.ref(system.sim)]
    del system, nic
    return all(ref() is None for ref in refs)


def test_finished_runs_leave_no_reference_cycle():
    """A run fork and a run ``rao-pcie`` system are freed on ``del``,
    without waiting for the cyclic collector."""
    builder = SystemBuilder(asic_system())
    warmed = builder.build("rao-cxl", pe_count=2)
    warmed.node("cxl-nic").warm()
    requests = make_workload("SG", ops=32).requests
    gc.disable()
    try:
        assert _dies_on_del(warmed.fork, "cxl-nic", requests)
        assert _dies_on_del(lambda: builder.build("rao-pcie"), "pcie-nic", requests)
    finally:
        gc.enable()
