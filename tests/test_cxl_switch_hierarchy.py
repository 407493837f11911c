"""Tests for CXL switches, fabric routing, and hierarchical coherence."""

from dataclasses import dataclass, field
from typing import Dict, Optional, Set

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cache.hierarchy import HierarchicalDomain
from repro.cxl.switch import CxlSwitch, RoutingError, SwitchFabric
from repro.mem.address import CACHELINE, line_base


# ------------------------------ Switches ------------------------------
def build_fabric():
    fabric = SwitchFabric()
    root = fabric.add_switch(CxlSwitch("root", traversal_ps=70_000))
    left = fabric.add_switch(CxlSwitch("left", traversal_ps=70_000))
    right = fabric.add_switch(CxlSwitch("right", traversal_ps=70_000))
    root.attach_switch(left)
    root.attach_switch(right)
    left.attach_endpoint("hostA")
    left.attach_endpoint("dev0")
    right.attach_endpoint("hostB")
    return fabric


def test_route_same_switch():
    fabric = build_fabric()
    assert fabric.route("hostA", "dev0") == ["left"]
    assert fabric.hop_count("hostA", "dev0") == 1


def test_route_across_root():
    fabric = build_fabric()
    assert fabric.route("hostA", "hostB") == ["left", "root", "right"]
    assert fabric.latency_ps("hostA", "hostB") == 3 * 70_000


def test_unknown_endpoint():
    fabric = build_fabric()
    with pytest.raises(RoutingError):
        fabric.route("ghost", "hostA")


def test_disconnected_fabric():
    fabric = SwitchFabric()
    a = fabric.add_switch(CxlSwitch("a"))
    b = fabric.add_switch(CxlSwitch("b"))
    a.attach_endpoint("x")
    b.attach_endpoint("y")
    with pytest.raises(RoutingError):
        fabric.route("x", "y")


def test_port_exhaustion():
    switch = CxlSwitch("s", ports=2)
    switch.attach_endpoint("a")
    switch.attach_endpoint("b")
    with pytest.raises(RoutingError):
        switch.attach_endpoint("c")


def test_duplicate_switch_rejected():
    fabric = SwitchFabric()
    fabric.add_switch(CxlSwitch("s"))
    with pytest.raises(ValueError):
        fabric.add_switch(CxlSwitch("s"))


def test_packets_counted_on_path():
    fabric = build_fabric()
    fabric.latency_ps("hostA", "hostB")
    assert fabric.switch("root").packets_routed == 1
    assert fabric.switch("left").packets_routed == 1


# ----------------------- Hierarchical coherence -----------------------
def test_local_agent_filters_repeat_accesses():
    domain = HierarchicalDomain(children=2)
    for _ in range(10):
        domain.access(0, 0x1000)
    agent = domain.locals[0]
    assert agent.name == "child0"
    assert agent.global_requests == 1
    assert agent.local_hits == 9
    assert agent.filter_rate == pytest.approx(0.9)


def test_exclusive_access_invalidates_sibling():
    domain = HierarchicalDomain(children=2)
    domain.access(0, 0x1000)
    domain.access(1, 0x1000, exclusive=True)
    # child0's replica was invalidated; its next access goes global.
    domain.access(0, 0x1000)
    assert domain.locals[0].global_requests == 2


def test_shared_readers_coexist():
    domain = HierarchicalDomain(children=3)
    for child in (0, 1, 2):
        domain.access(child, 0x2000)
    # Everyone keeps a shared replica; repeats are local.
    for child in (0, 1, 2):
        domain.access(child, 0x2000)
        assert domain.locals[child].local_hits == 1


def test_shared_replica_insufficient_for_exclusive():
    domain = HierarchicalDomain(children=1)
    domain.access(0, 0x3000)                           # shared
    hit = domain.access(0, 0x3000, exclusive=True)
    assert not hit                                     # upgrade went global
    assert domain.locals[0].global_requests == 2


def test_owner_downgraded_by_reader():
    domain = HierarchicalDomain(children=2)
    domain.access(0, 0x4000, exclusive=True)
    domain.access(1, 0x4000)                           # reader
    # The ex-owner lost its exclusive replica.
    assert domain.access(0, 0x4000, exclusive=True) is False


def test_traffic_savings_vs_flat_directory():
    """The §VIII motivation: local agents absorb most coherence traffic
    for locality-heavy workloads."""
    domain = HierarchicalDomain(children=4)
    accesses = 0
    for round_ in range(50):
        for i, child in enumerate(sorted(domain.locals)):
            # Each child hammers its own working set.
            domain.access(child, 0x10000 * (i + 1) + (round_ % 4) * 64)
            accesses += 1
    hierarchical = domain.total_fabric_messages
    flat = domain.flat_equivalent_messages(accesses)
    assert hierarchical < 0.2 * flat


def test_invalid_child_count():
    with pytest.raises(ValueError):
        HierarchicalDomain(children=0)


def directory(domain):
    """The kernel's directory decoded: per line, the owner (None for
    none) and the set of sharers."""
    children = range(len(domain.replicas))
    return {
        line: (
            None if owner < 0 else owner,
            {child for child in children if sharers >> child & 1},
        )
        for line, (owner, sharers) in domain.directory.items()
    }


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP open item 7: a shared miss downgrades a foreign owner to"
    " sharer in the directory but drops the owner's replica",
)
def test_downgraded_owner_keeps_a_shared_replica():
    domain = HierarchicalDomain(children=2)
    domain.access(0, 0x4000, exclusive=True)
    domain.access(1, 0x4000)
    assert directory(domain)[0x4000] == (None, {0, 1})
    # The directory lists child0 as a sharer, so it should hold the line.
    assert domain.locals[0].replicas == {0x4000: False}
    assert domain.access(0, 0x4000) is True


# ------------------ Reference protocol formulation --------------------
@dataclass
class ReferenceLine:
    owner: Optional[int] = None
    sharers: Set[int] = field(default_factory=set)


class ReferenceGlobalAgent:
    """The global agent as first written: ``line_base`` through the
    ``_line`` hop, a line object with a sharer set per address, and a set
    comprehension for the sharers to invalidate."""

    def __init__(self):
        self._lines = {}

    def _line(self, addr):
        base = line_base(addr)
        line = self._lines.get(base)
        if line is None:
            line = self._lines[base] = ReferenceLine()
        return line

    def acquire(self, child, addr, exclusive):
        line = self._line(addr)
        messages = 2
        to_invalidate = set()
        if exclusive:
            if line.owner is not None and line.owner != child:
                to_invalidate.add(line.owner)
            to_invalidate |= {s for s in line.sharers if s != child}
            line.owner = child
            line.sharers = set()
        else:
            if line.owner is not None and line.owner != child:
                to_invalidate.add(line.owner)
                line.sharers.add(line.owner)
                line.owner = None
            line.sharers.add(child)
        messages += 2 * len(to_invalidate)
        return to_invalidate, messages

    def directory(self):
        return {
            base: (line.owner, set(line.sharers)) for base, line in self._lines.items()
        }


@dataclass
class ReferenceAgent:
    replicas: Dict[int, bool] = field(default_factory=dict)
    local_hits: int = 0
    global_requests: int = 0
    fabric_messages: int = 0


class ReferenceDomain:
    """``HierarchicalDomain.access`` as first written, over the reference
    agent, one call per op."""

    def __init__(self, children):
        self.global_agent = ReferenceGlobalAgent()
        self.locals = {child: ReferenceAgent() for child in range(children)}

    def access(self, child, addr, exclusive=False):
        addr = line_base(addr)
        agent = self.locals[child]
        held = agent.replicas.get(addr)
        if held is not None and (not exclusive or held):
            agent.local_hits += 1
            return True
        agent.global_requests += 1
        invalidated, messages = self.global_agent.acquire(child, addr, exclusive)
        for name in invalidated:
            self.locals[name].replicas.pop(addr, None)
        agent.fabric_messages += messages
        agent.replicas[addr] = exclusive
        return False


def assert_same_state(domain, reference):
    """Replicas, counters and directory of ``domain`` equal the reference's."""
    assert set(domain.locals) == set(reference.locals)
    for child, agent in domain.locals.items():
        expected = reference.locals[child]
        assert agent.replicas == expected.replicas
        assert (agent.local_hits, agent.global_requests, agent.fabric_messages) == (
            expected.local_hits,
            expected.global_requests,
            expected.fabric_messages,
        )
    assert directory(domain) == reference.global_agent.directory()


# A few lines, one far above 4 GiB, each hit at any offset.
LINES = (0x0, 0x4000, 0x10_0000_0040)
STREAMS = st.lists(
    st.tuples(
        st.integers(0, 7),                  # child, modulo the child count
        st.sampled_from(LINES),
        st.integers(0, CACHELINE - 1),      # offset into the line
        st.booleans(),                      # exclusive?
    ),
    max_size=60,
)
# Owner downgraded by a reader, then re-read and re-owned.
DOWNGRADE = [
    (0, 0x4000, 0, True),
    (1, 0x4000, 8, False),
    (0, 0x4000, 63, False),
    (1, 0x4000, 1, True),
    (2, 0x4000, 2, False),
    (1, 0x4000, 3, False),
    (0, 0x4000, 4, True),
    (2, 0x4000, 6, True),
]


@settings(max_examples=150)
@given(children=st.integers(1, 8), stream=STREAMS)
@example(children=3, stream=DOWNGRADE)
def test_domain_matches_the_reference_formulation(children, stream):
    domain, reference = HierarchicalDomain(children), ReferenceDomain(children)
    for index, line, offset, exclusive in stream:
        child, addr = index % children, line + offset
        assert domain.access(child, addr, exclusive) == reference.access(
            child, addr, exclusive
        )
        assert_same_state(domain, reference)


@settings(max_examples=150)
@given(children=st.integers(1, 8), stream=STREAMS)
@example(children=3, stream=DOWNGRADE)
def test_one_batched_call_matches_the_reference_op_by_op(children, stream):
    domain, reference = HierarchicalDomain(children), ReferenceDomain(children)
    ops = [(index % children, line + offset, excl) for index, line, offset, excl in stream]
    for child, addr, exclusive in ops:
        reference.access(child, addr, exclusive)
    domain.access_many(
        [op[0] for op in ops], [op[1] for op in ops], [op[2] for op in ops]
    )
    assert_same_state(domain, reference)
