"""Tests for the LLC home agent: directory, snoops, the Fig. 7 ladder."""

import pytest

from repro.cache.block import NO_SHARERS, MesiState
from repro.cache.llc import LlcOp, SharedLLC
from repro.cache.hmc import HostMemoryCache
from repro.cache.messages import MessageType, NullProtocolTrace, ProtocolTrace
from repro.cache.mesi import ProtocolError
from repro.config import fpga_system
from repro.config.system import DramParams
from repro.mem.address import AddressRange
from repro.mem.controller import MemoryController
from repro.mem.interface import MemoryInterface
from repro.sim.engine import Simulator


def build(trace=None):
    config = fpga_system()
    sim = Simulator()
    memif = MemoryInterface(config.host.memif_oneway_ps)
    memif.attach(
        "host",
        AddressRange(0, 1 << 40, "host"),
        MemoryController(DramParams(jitter_ps=0), channels=2, seed=1),
    )
    llc = SharedLLC(sim, config.host, memif, trace=trace)
    return sim, llc, config


class FakePeer:
    """Peer cache that answers snoops with a fixed response."""

    def __init__(self, response):
        self.response = response
        self.snoops = []

    def snoop(self, snoop_type, addr):
        self.snoops.append((snoop_type, addr))
        return self.response


def run_request(sim, llc, requester, op, addr):
    done = []
    llc.request(requester, op, addr, lambda: done.append(sim.now))
    sim.run()
    assert done, "request did not complete"
    return done[0]


def test_llc_miss_fetches_from_memory():
    sim, llc, config = build()
    llc.register_peer("dev", FakePeer(MessageType.RSP_I))
    t = run_request(sim, llc, "dev", LlcOp.RD_OWN, 0x1000)
    assert llc.holds(0x1000)
    entry = llc.directory_entry(0x1000)
    assert entry.owner == "dev"
    # Latency must include ingress + LLC + a memory round trip.
    host = config.host
    floor = host.home_ingress_ps + host.llc_access_ps + 2 * host.memif_oneway_ps
    assert t >= floor


def test_llc_hit_skips_memory():
    sim, llc, config = build()
    llc.register_peer("dev", FakePeer(MessageType.RSP_I))
    llc.demote(0x2000)
    t = run_request(sim, llc, "dev", LlcOp.RD_OWN, 0x2000)
    assert t == config.host.home_ingress_ps + config.host.llc_access_ps


def test_rd_own_snoops_modified_peer_fig7():
    """Phase 1 of Fig. 7: RdOwn -> SnpInv -> RspIFwdM -> writeback -> GO-E."""
    sim, llc, _config = build(trace=ProtocolTrace())
    hmc_peer = FakePeer(MessageType.RSP_I)
    llc.register_peer("hmc", hmc_peer)
    # CoreX-L1 holds the line Modified; LLC directory knows it.
    l1 = FakePeer(MessageType.RSP_I_FWD_M)
    llc.register_peer("core0-L1", l1)
    addr = 0x3000
    llc.demote(addr)
    llc.directory_entry(addr).owner = "core0-L1"

    run_request(sim, llc, "hmc", LlcOp.RD_OWN, addr)
    types = llc.trace.types()
    expected_order = [
        MessageType.RD_OWN,
        MessageType.SNP_INV,
        MessageType.RSP_I_FWD_M,
        MessageType.MEM_WR,
        MessageType.GO_E,
    ]
    positions = [types.index(t) for t in expected_order]
    assert positions == sorted(positions)
    # Ownership moved to the HMC; the L1 was told to drop its copy.
    assert llc.directory_entry(addr).owner == "hmc"
    assert l1.snoops == [(MessageType.SNP_INV, addr)]
    assert llc.writebacks == 1


def test_rd_shared_leaves_sharers():
    sim, llc, _config = build()
    llc.register_peer("a", FakePeer(MessageType.RSP_I))
    llc.register_peer("b", FakePeer(MessageType.RSP_I))
    run_request(sim, llc, "a", LlcOp.RD_SHARED, 0x4000)
    run_request(sim, llc, "b", LlcOp.RD_SHARED, 0x4000)
    entry = llc.directory_entry(0x4000)
    assert entry.sharers == {"a", "b"}
    assert entry.owner is None


def test_rd_own_invalidates_sharers():
    sim, llc, _config = build()
    a, b = FakePeer(MessageType.RSP_I), FakePeer(MessageType.RSP_I)
    llc.register_peer("a", a)
    llc.register_peer("b", b)
    run_request(sim, llc, "a", LlcOp.RD_SHARED, 0x5000)
    run_request(sim, llc, "b", LlcOp.RD_OWN, 0x5000)
    entry = llc.directory_entry(0x5000)
    assert entry.owner == "b"
    assert entry.sharers == set()
    assert a.snoops  # sharer was invalidated


def test_dirty_evict_ladder():
    """Phase 3 of Fig. 7: DirtyEvict -> GO-WritePull -> Data -> GO-I."""
    sim, llc, _config = build(trace=ProtocolTrace())
    llc.register_peer("hmc", FakePeer(MessageType.RSP_I))
    addr = 0x6000
    run_request(sim, llc, "hmc", LlcOp.RD_OWN, addr)
    llc.trace.clear()
    run_request(sim, llc, "hmc", LlcOp.DIRTY_EVICT, addr)
    types = llc.trace.types()
    for expected in (
        MessageType.DIRTY_EVICT,
        MessageType.GO_WRITE_PULL,
        MessageType.DATA,
        MessageType.GO_I,
    ):
        assert expected in types
    entry = llc.directory_entry(addr)
    assert entry.owner is None
    assert entry.state is MesiState.MODIFIED  # dirty data now lives in LLC


def test_dirty_evict_from_non_owner_rejected():
    sim, llc, _config = build()
    llc.register_peer("a", FakePeer(MessageType.RSP_I))
    llc.register_peer("b", FakePeer(MessageType.RSP_I))
    run_request(sim, llc, "a", LlcOp.RD_OWN, 0x7000)
    llc.request("b", LlcOp.DIRTY_EVICT, 0x7000, lambda: None)
    with pytest.raises(ProtocolError):
        sim.run()


def test_nc_push_installs_dirty_line():
    sim, llc, _config = build()
    llc.register_peer("dev", FakePeer(MessageType.RSP_I))
    run_request(sim, llc, "dev", LlcOp.NC_PUSH, 0x8000)
    entry = llc.directory_entry(0x8000)
    assert entry is not None
    assert entry.state is MesiState.MODIFIED
    assert entry.owner is None


def test_clean_evict_clears_directory():
    sim, llc, _config = build()
    llc.register_peer("dev", FakePeer(MessageType.RSP_I))
    run_request(sim, llc, "dev", LlcOp.RD_SHARED, 0x9000)
    run_request(sim, llc, "dev", LlcOp.CLEAN_EVICT, 0x9000)
    entry = llc.directory_entry(0x9000)
    assert "dev" not in entry.sharers
    assert entry.sharers is NO_SHARERS  # emptied sets are the shared one


def test_racing_requests_serialize_per_line():
    sim, llc, _config = build()
    llc.register_peer("a", FakePeer(MessageType.RSP_I))
    llc.register_peer("b", FakePeer(MessageType.RSP_I))
    order = []
    llc.request("a", LlcOp.RD_OWN, 0xA000, lambda: order.append("a"))
    llc.request("b", LlcOp.RD_OWN, 0xA000, lambda: order.append("b"))
    sim.run()
    assert order == ["a", "b"]
    assert llc.directory_entry(0xA000).owner == "b"


def test_line_lock_queues_lazily():
    """A line owned by one request holds no waiter queue; the second
    request makes one, and the last completion frees the line."""
    sim, llc, _config = build()
    llc.register_peer("a", FakePeer(MessageType.RSP_I))
    llc.register_peer("b", FakePeer(MessageType.RSP_I))
    llc.request("a", LlcOp.RD_SHARED, 0xA000, lambda: None)
    assert llc._busy == {0xA000: None}
    llc.request("b", LlcOp.RD_SHARED, 0xA000, lambda: None)
    assert [waiter[0] for waiter in llc._busy[0xA000]] == ["b"]
    sim.run()
    assert llc._busy == {}
    assert llc.directory_entry(0xA000).sharers == {"a", "b"}


def test_mem_path_ii_throttles_misses():
    sim, llc, config = build()
    llc.register_peer("dev", FakePeer(MessageType.RSP_I))
    completions = []
    for i in range(8):
        llc.request(
            "dev", LlcOp.RD_SHARED, 0xB000 + i * 64, lambda: completions.append(sim.now)
        )
    sim.run()
    gaps = [b - a for a, b in zip(completions, completions[1:])]
    # Steady-state spacing tracks the LLC-miss initiation interval.
    assert min(gaps) >= config.host.mem_path_ii_ps - config.host.dram.jitter_ps * 2


# ----------------------------------------------------------------------
# Stats contract and trace gating
# ----------------------------------------------------------------------

def test_read_request_counts_exactly_one_miss_then_one_hit():
    sim, llc, _config = build()
    llc.register_peer("dev", FakePeer(MessageType.RSP_I))
    run_request(sim, llc, "dev", LlcOp.RD_SHARED, 0x9000)
    # One counted probe per read: the miss, despite the extra timing
    # peek in arbitration and the fill that follows.
    assert llc.array.misses == 1
    assert llc.array.hits == 0
    run_request(sim, llc, "dev", LlcOp.RD_SHARED, 0x9000)
    assert llc.array.misses == 1
    assert llc.array.hits == 1


def test_evictions_do_not_count_lookup_stats():
    sim, llc, _config = build()
    llc.register_peer("dev", FakePeer(MessageType.RSP_I))
    run_request(sim, llc, "dev", LlcOp.RD_OWN, 0x2000)
    hits, misses = llc.array.hits, llc.array.misses
    run_request(sim, llc, "dev", LlcOp.DIRTY_EVICT, 0x2000)
    assert (llc.array.hits, llc.array.misses) == (hits, misses)


def test_disabled_trace_records_nothing_but_timing_matches():
    sim_a, llc_a, _config = build(trace=ProtocolTrace())
    llc_a.register_peer("dev", FakePeer(MessageType.RSP_I))
    t_a = run_request(sim_a, llc_a, "dev", LlcOp.RD_OWN, 0x4000)
    assert len(llc_a.trace) > 0

    config = fpga_system()
    sim_b = Simulator()
    memif = MemoryInterface(config.host.memif_oneway_ps)
    memif.attach(
        "host",
        AddressRange(0, 1 << 40, "host"),
        MemoryController(DramParams(jitter_ps=0), channels=2, seed=1),
    )
    llc_b = SharedLLC(sim_b, config.host, memif, trace=NullProtocolTrace())
    llc_b.register_peer("dev", FakePeer(MessageType.RSP_I))
    t_b = run_request(sim_b, llc_b, "dev", LlcOp.RD_OWN, 0x4000)

    assert len(llc_b.trace) == 0
    assert t_a == t_b  # tracing is observational: timing identical


def test_trace_is_opt_in():
    sim, llc, _config = build()
    assert isinstance(llc.trace, NullProtocolTrace)
    llc.register_peer("dev", FakePeer(MessageType.RSP_I))
    run_request(sim, llc, "dev", LlcOp.RD_OWN, 0x4000)
    assert len(llc.trace) == 0
    # Assigning a live trace afterwards starts the ladder from there.
    llc.trace = ProtocolTrace()
    run_request(sim, llc, "dev", LlcOp.DIRTY_EVICT, 0x4000)
    assert llc.trace.types()[0] is MessageType.DIRTY_EVICT


def test_driver_run_leaves_llc_trace_empty():
    from golden_supernode import built_systems

    from repro.workloads import WorkloadDriver

    with built_systems() as built:
        WorkloadDriver(fpga_system()).run(
            "rw-mix(2000,0.5)", topology="fanout(4)", seed=7, streams=4
        )
    (system,) = built
    assert system.llc.requests > 0
    assert len(system.llc.trace) == 0
