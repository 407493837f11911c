"""Failure injection: the simulator must fail loudly, not corrupt state."""

import pytest

from repro.cache.block import MesiState
from repro.cache.llc import LlcOp, SharedLLC
from repro.cache.mesi import ProtocolError, check_transition
from repro.cache.messages import MessageType
from repro.calibration.microbench import CxlTestbench
from repro.config import fpga_system
from repro.config.system import DramParams
from repro.mem.address import AddressRange
from repro.mem.controller import MemoryController
from repro.mem.interface import MemoryInterface
from repro.rpc.hyperprotobench import make_bench
from repro.rpc.message import decode_message
from repro.rpc.wire import WireError
from repro.sim.engine import Simulator
from repro.sim.queueing import BoundedQueue, QueueFullError


# ----------------------- Coherence protocol holes ----------------------
def test_directory_naming_unknown_peer_fails():
    config = fpga_system()
    sim = Simulator()
    memif = MemoryInterface(config.host.memif_oneway_ps)
    memif.attach(
        "host", AddressRange(0, 1 << 30),
        MemoryController(DramParams(jitter_ps=0), channels=1, seed=1),
    )
    llc = SharedLLC(sim, config.host, memif)
    llc.register_peer("real", _Peer())
    llc.demote(0x1000)
    # Corrupt the directory: owner points at a peer that was never
    # registered (models a directory bit-flip / wiring bug).
    llc.directory_entry(0x1000).owner = "ghost"
    llc.request("real", LlcOp.RD_OWN, 0x1000, lambda: None)
    with pytest.raises(ProtocolError):
        sim.run()


class _Peer:
    def snoop(self, snoop_type, addr):
        return MessageType.RSP_I


def test_double_write_upgrade_is_silent_but_invalid_from_shared():
    with pytest.raises(ProtocolError):
        check_transition(MesiState.SHARED, "local_write", MesiState.MODIFIED)


def test_dcoh_mark_modified_on_shared_line_rejected():
    tb = CxlTestbench(fpga_system())
    tb.device.hmc.fill(0x1000, MesiState.SHARED)
    with pytest.raises(ProtocolError):
        tb.device.hmc.mark_modified(0x1000)


# --------------------------- Resource limits ---------------------------
def test_rx_queue_overflow_raises():
    queue = BoundedQueue(2, "rx")
    queue.push(1)
    queue.push(2)
    with pytest.raises(QueueFullError):
        queue.push(3)
    # State unchanged: still exactly two entries, FIFO order intact.
    assert queue.pop() == 1
    assert queue.pop() == 2


def test_numa_exhaustion_does_not_corrupt_allocator():
    from repro.kernel.numa import NodeKind, NumaNode, OutOfMemory
    from repro.kernel.page_table import PAGE_SIZE

    node = NumaNode(0, NodeKind.CPU, AddressRange(0, 2 * PAGE_SIZE))
    node.alloc_frame()
    node.alloc_frame()
    with pytest.raises(OutOfMemory):
        node.alloc_frame()
    assert node.allocated_frames == 2
    node.free_frame(0)
    assert node.alloc_frame() == 0


# ------------------------- Malformed wire data -------------------------
@pytest.mark.parametrize(
    "corruption",
    [
        lambda wire: wire[:-1],                      # truncated tail
        lambda wire: wire[1:],                       # missing first key
        lambda wire: b"\xff" * 12 + wire,            # garbage prefix
        lambda wire: bytes([wire[0]]) + b"\xff" * 11, # overlong varint
    ],
)
def test_deserializer_rejects_corrupted_messages(corruption):
    bench = make_bench("Bench1", messages=1)
    wire = bench.encoded[0]
    corrupted = corruption(wire)
    with pytest.raises((WireError, KeyError)):
        decode_message(bench.schema, corrupted)


def test_deserializer_survives_and_recovers_after_error():
    bench = make_bench("Bench0", messages=2)
    with pytest.raises((WireError, KeyError)):
        decode_message(bench.schema, bench.encoded[0][:-3])
    # The next (intact) message still decodes fine.
    assert decode_message(bench.schema, bench.encoded[1]) == bench.values[1]


# ----------------------------- Simulator -------------------------------
def test_callback_exception_does_not_corrupt_clock():
    sim = Simulator()

    def boom():
        raise RuntimeError("injected")

    sim.schedule_after(100, boom)
    sim.schedule_after(200, lambda: None)
    with pytest.raises(RuntimeError):
        sim.run()
    # Time stopped at the failing event; the rest is still runnable.
    assert sim.now == 100
    assert sim.run() == 1
    assert sim.now == 200


def test_mtt_rejects_out_of_bounds_after_valid_traffic():
    from repro.nic.base import MemoryTranslationTable

    mtt = MemoryTranslationTable()
    mtt.register(1, base=0x1000, size=128)
    assert mtt.translate(1, 64) == 0x1040
    with pytest.raises(ValueError):
        mtt.translate(1, 128)
    # Cache state still sane.
    assert mtt.translate(1, 0) == 0x1000
