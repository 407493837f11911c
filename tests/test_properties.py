"""Property-based tests on core data structures and invariants."""

import copy
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cache.array import CacheArray
from repro.cache.block import MesiState
from repro.kernel.page_table import PAGE_SIZE, UnifiedPageTable
from repro.mem.address import CACHELINE, Interleaver
from repro.rao.ops import MASK64, AtomicOp, apply_atomic
from repro.sim.engine import Simulator
from repro.system import (
    TOPOLOGIES,
    Topology,
    TopologySchemaError,
    topology_by_name,
)


# --------------------------- Event engine -----------------------------
@settings(max_examples=60)
@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=10_000), st.integers(0, 2)),
        max_size=60,
    )
)
def test_engine_fires_in_time_order(spec):
    """Events fire in ``(time, scheduling index)`` order: ties keep the
    order they were scheduled in, including events a callback schedules
    at delay 0 while the drain runs."""
    sim = Simulator()
    scheduled = []  # (when, index) of every event, in scheduling order
    fired = []

    def schedule(delay, children):
        key = (sim.now + delay, len(scheduled))
        scheduled.append(key)
        sim.schedule_after(delay, fire, (key, children))

    def fire(key, children):
        assert sim.now == key[0]
        fired.append(key)
        for _ in range(children):
            schedule(0, 0)

    for delay, children in spec:
        schedule(delay, children)
    sim.run()
    assert len(fired) == len(spec) + sum(children for _, children in spec)
    assert fired == sorted(scheduled)


# --------------------------- Interleaver ------------------------------
@settings(max_examples=80)
@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=(1 << 40) - 1),
)
def test_interleaver_bijection(channels, addr):
    inter = Interleaver(channels)
    channel, local = inter.map(addr)
    assert 0 <= channel < channels
    assert inter.unmap(channel, local) == addr


@settings(max_examples=30)
@given(st.integers(min_value=2, max_value=4))
def test_interleaver_balances_lines(channels):
    inter = Interleaver(channels)
    counts = [0] * channels
    for i in range(channels * 50):
        counts[inter.map(i * CACHELINE)[0]] += 1
    assert max(counts) == min(counts)


# --------------------------- Cache array ------------------------------
addr_lists = st.lists(
    st.integers(min_value=0, max_value=255).map(lambda i: i * CACHELINE),
    min_size=1,
    max_size=120,
)


@settings(max_examples=60)
@given(addr_lists)
def test_cache_array_never_exceeds_capacity(addrs):
    arr = CacheArray(size=1024, ways=2)  # 16 lines
    for addr in addrs:
        arr.insert(addr, MesiState.EXCLUSIVE)
        assert arr.occupancy <= 16
    # No duplicate tags within any set.
    seen = set()
    for line_addr, _block in arr.blocks():
        assert line_addr not in seen
        seen.add(line_addr)


@settings(max_examples=60)
@given(addr_lists)
def test_cache_array_inserted_line_is_present(addrs):
    arr = CacheArray(size=1024, ways=2)
    for addr in addrs:
        arr.insert(addr, MesiState.SHARED)
        assert arr.peek(addr) is not None


@settings(max_examples=40)
@given(addr_lists, st.randoms(use_true_random=False))
def test_cache_array_eviction_victim_was_resident(addrs, rng):
    arr = CacheArray(size=512, ways=2)  # 8 lines
    resident = set()
    for addr in addrs:
        _block, victim = arr.insert(addr, MesiState.EXCLUSIVE)
        if victim is not None:
            victim_addr, _vb = victim
            assert victim_addr in resident
            resident.discard(victim_addr)
        resident.add(addr)


# --------------------------- Page table -------------------------------
@settings(max_examples=40)
@given(
    st.lists(
        st.integers(min_value=0, max_value=63),
        min_size=1,
        max_size=60,
    )
)
def test_page_table_translate_consistent(vpns):
    pt = UnifiedPageTable()
    mapped = {}
    next_pfn = 100
    for vpn in vpns:
        vaddr = vpn * PAGE_SIZE
        if vpn not in mapped:
            pt.map(vaddr)
            pt.assign_frame(vaddr, next_pfn, node=0)
            mapped[vpn] = next_pfn
            next_pfn += 1
        assert pt.translate(vaddr + 7) == mapped[vpn] * PAGE_SIZE + 7


# --------------------------- Topology specs ---------------------------
@settings(max_examples=40)
@given(st.sampled_from(TOPOLOGIES.names()))
def test_topology_dict_roundtrip_is_identity(name):
    topology = topology_by_name(name)
    data = topology.to_dict()
    reparsed = Topology.from_dict(data)
    assert reparsed == topology
    assert reparsed.to_dict() == data


def _corrupt_dangling_link(data):
    data["links"] = list(data["links"]) + [
        {"a": data["nodes"][0]["name"], "b": "no-such-node"}
    ]
    return True


def _corrupt_duplicate_node(data):
    data["nodes"] = list(data["nodes"]) + [copy.deepcopy(data["nodes"][0])]
    return True


def _corrupt_unknown_kind(data):
    data["nodes"][0]["kind"] = "not.a.kind"
    return True


def _corrupt_node_missing_name(data):
    del data["nodes"][0]["name"]
    return True


def _corrupt_node_not_object(data):
    data["nodes"][0] = "just-a-string"
    return True


def _corrupt_nodes_not_list(data):
    data["nodes"] = {"host": {"kind": "host"}}
    return True


def _corrupt_link_missing_endpoint(data):
    if not data["links"]:
        return False
    del data["links"][0]["b"]
    return True


def _corrupt_unknown_top_key(data):
    data["frobnicate"] = 1
    return True


def _corrupt_unknown_node_key(data):
    data["nodes"][0]["color"] = "red"
    return True


def _corrupt_blank_name(data):
    data["name"] = ""
    return True


_CORRUPTIONS = [
    _corrupt_dangling_link,
    _corrupt_duplicate_node,
    _corrupt_unknown_kind,
    _corrupt_node_missing_name,
    _corrupt_node_not_object,
    _corrupt_nodes_not_list,
    _corrupt_link_missing_endpoint,
    _corrupt_unknown_top_key,
    _corrupt_unknown_node_key,
    _corrupt_blank_name,
]


@settings(max_examples=80)
@given(
    st.sampled_from(TOPOLOGIES.names()),
    st.sampled_from(_CORRUPTIONS),
)
def test_malformed_topology_specs_raise_the_schema_error(name, corrupt):
    """Every malformed spec fails as TopologySchemaError — never as a
    bare KeyError leaking out of dict access."""
    data = topology_by_name(name).to_dict()
    assume(data["nodes"])  # corruptions index into nodes
    assume(corrupt(data))
    with pytest.raises(TopologySchemaError):
        Topology.from_dict(data)


# --------------------------- Workload traces --------------------------
_op_strategy = st.builds(
    lambda kind, addr, size, delay, stream: (kind, addr, size, delay, stream),
    st.sampled_from(["read", "write"]),
    st.integers(min_value=0, max_value=(1 << 32) - 1).map(lambda i: i * 64),
    st.sampled_from([64, 128, 4096]),
    st.integers(min_value=0, max_value=1_000_000),
    st.integers(min_value=0, max_value=7),
)


def _workload_from(ops_tuples):
    from repro.workloads import Workload, WorkloadOp

    ops = [WorkloadOp(*t) for t in ops_tuples]
    return Workload(name="prop", generate=lambda _rng: list(ops)), ops


@settings(max_examples=60)
@given(st.lists(_op_strategy, max_size=60))
def test_trace_roundtrip_is_identity(ops_tuples):
    from repro.workloads import dump_trace, parse_trace

    workload, ops = _workload_from(ops_tuples)
    text = dump_trace(workload, seed=5)
    replayed = parse_trace(text)
    assert replayed.ops(seed=0) == ops
    # A second dump of the replay is bit-identical text (stable format).
    assert dump_trace(replayed, seed=5) == text.replace(
        '"workload": "prop"', '"workload": "trace:prop"'
    )


def _trace_corrupt_header_schema(lines):
    import json as _json

    header = _json.loads(lines[0])
    header["schema"] = 2
    lines[0] = _json.dumps(header, sort_keys=True)
    return True


def _trace_corrupt_header_missing(lines):
    lines[0] = "{}"
    return True


def _trace_corrupt_op_arity(lines):
    if len(lines) < 2:
        return False
    lines[1] = '["read", 0]'
    return True


def _trace_corrupt_op_kind(lines):
    if len(lines) < 2:
        return False
    lines[1] = '["rmw", 0, 64, 0, 0]'
    return True


def _trace_corrupt_op_negative(lines):
    if len(lines) < 2:
        return False
    lines[1] = '["read", -64, 64, 0, 0]'
    return True


def _trace_corrupt_drop_op(lines):
    if len(lines) < 2:
        return False
    lines.pop()
    return True


_TRACE_CORRUPTIONS = [
    _trace_corrupt_header_schema,
    _trace_corrupt_header_missing,
    _trace_corrupt_op_arity,
    _trace_corrupt_op_kind,
    _trace_corrupt_op_negative,
    _trace_corrupt_drop_op,
]


@settings(max_examples=60)
@given(
    st.lists(_op_strategy, min_size=1, max_size=20),
    st.sampled_from(_TRACE_CORRUPTIONS),
)
def test_malformed_traces_raise_the_schema_error(ops_tuples, corrupt):
    """Every malformed trace fails as WorkloadSchemaError — never as a
    bare KeyError/IndexError leaking out of parsing."""
    from repro.workloads import WorkloadSchemaError, dump_trace, parse_trace

    workload, _ops = _workload_from(ops_tuples)
    lines = dump_trace(workload, seed=5).splitlines()
    assume(corrupt(lines))
    with pytest.raises(WorkloadSchemaError):
        parse_trace("\n".join(lines))


@settings(max_examples=60)
@given(
    st.sampled_from(["sequential", "uniform", "zipf", "rw-mix", "mixed"]),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_workload_expansion_is_a_pure_function_of_the_seed(name, seed):
    from repro.workloads import resolve_workload

    workload = resolve_workload(f"{name}(16)")
    assert workload.ops(seed) == workload.ops(seed)


# ------------------------------ Atomics -------------------------------
@settings(max_examples=80)
@given(
    st.sampled_from([AtomicOp.FAA, AtomicOp.SWAP, AtomicOp.FETCH_AND_OR,
                     AtomicOp.FETCH_AND_AND, AtomicOp.FETCH_AND_XOR]),
    st.integers(min_value=0, max_value=MASK64),
    st.integers(min_value=0, max_value=MASK64),
)
def test_atomics_stay_in_64_bits_and_fetch_old(op, current, operand):
    new, old = apply_atomic(op, current, operand)
    assert 0 <= new <= MASK64
    assert old == current


@settings(max_examples=50)
@given(
    st.integers(min_value=0, max_value=255),
    st.lists(st.integers(min_value=0, max_value=MASK64), max_size=30),
)
def test_faa_sequence_equals_sum(start, operands):
    value = start
    for operand in operands:
        value, _ = apply_atomic(AtomicOp.FAA, value, operand)
    assert value == (start + sum(operands)) & MASK64
