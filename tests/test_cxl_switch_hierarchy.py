"""Tests for CXL switches, fabric routing, and hierarchical coherence."""

from dataclasses import dataclass, field
from typing import Optional, Set

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cache.hierarchy import GlobalAgent, HierarchicalDomain, LocalAgent
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
        domain.access("child0", 0x1000)
    agent = domain.locals["child0"]
    assert agent.global_requests == 1
    assert agent.local_hits == 9
    assert agent.filter_rate == pytest.approx(0.9)


def test_exclusive_access_invalidates_sibling():
    domain = HierarchicalDomain(children=2)
    domain.access("child0", 0x1000)
    domain.access("child1", 0x1000, exclusive=True)
    # child0's replica was invalidated; its next access goes global.
    domain.access("child0", 0x1000)
    assert domain.locals["child0"].global_requests == 2


def test_shared_readers_coexist():
    domain = HierarchicalDomain(children=3)
    for child in ("child0", "child1", "child2"):
        domain.access(child, 0x2000)
    # Everyone keeps a shared replica; repeats are local.
    for child in ("child0", "child1", "child2"):
        domain.access(child, 0x2000)
        assert domain.locals[child].local_hits == 1


def test_shared_replica_insufficient_for_exclusive():
    domain = HierarchicalDomain(children=1)
    domain.access("child0", 0x3000)                    # shared
    hit = domain.access("child0", 0x3000, exclusive=True)
    assert not hit                                     # upgrade went global
    assert domain.locals["child0"].global_requests == 2


def test_owner_downgraded_by_reader():
    domain = HierarchicalDomain(children=2)
    domain.access("child0", 0x4000, exclusive=True)
    domain.access("child1", 0x4000)                    # reader
    # The ex-owner lost its exclusive replica.
    assert domain.access("child0", 0x4000, exclusive=True) is False


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


def test_global_agent_release():
    agent = GlobalAgent()
    agent.acquire("a", 0x1000, exclusive=True)
    agent.release("a", 0x1000)
    # A second exclusive from another child needs no invalidation.
    invalidated, _msgs = agent.acquire("b", 0x1000, exclusive=True)
    assert invalidated == set()


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP open item 7: a shared miss downgrades a foreign owner to"
    " sharer in the directory but drops the owner's replica",
)
def test_downgraded_owner_keeps_a_shared_replica():
    domain = HierarchicalDomain(children=2)
    domain.access("child0", 0x4000, exclusive=True)
    domain.access("child1", 0x4000)
    line = domain.global_agent._lines[0x4000]
    assert (line.owner, line.sharers) == (None, {"child0", "child1"})
    # The directory lists child0 as a sharer, so it should hold the line.
    assert domain.locals["child0"].replicas == {0x4000: False}
    assert domain.access("child0", 0x4000) is True


# ------------------ Reference protocol formulation --------------------
@dataclass
class ReferenceLine:
    owner: Optional[str] = None
    sharers: Set[str] = field(default_factory=set)


class ReferenceGlobalAgent:
    """The global agent as first written: ``line_base`` through the
    ``_line`` hop, and a set comprehension for the sharers to invalidate;
    :class:`GlobalAgent` aligns inline and reuses the old sharer set."""

    def __init__(self):
        self._lines = {}
        self.requests = 0
        self.invalidations_sent = 0

    def _line(self, addr):
        base = line_base(addr)
        line = self._lines.get(base)
        if line is None:
            line = self._lines[base] = ReferenceLine()
        return line

    def acquire(self, child, addr, exclusive):
        self.requests += 1
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
        self.invalidations_sent += len(to_invalidate)
        return to_invalidate, messages

    def release(self, child, addr):
        line = self._line(addr)
        if line.owner == child:
            line.owner = None
        line.sharers.discard(child)


class ReferenceDomain:
    """``HierarchicalDomain.access`` as first written, over the reference
    agent."""

    def __init__(self, children):
        self.global_agent = ReferenceGlobalAgent()
        self.locals = {f"child{i}": LocalAgent(f"child{i}") for i in range(children)}

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


def directory(agent):
    """Owner and sharers of every line the agent tracks; a line with
    neither is the same as no entry (``release`` makes none)."""
    return {
        base: (line.owner, set(line.sharers))
        for base, line in agent._lines.items()
        if line.owner is not None or line.sharers
    }


# A few lines, one far above 4 GiB, each hit at any offset.
LINES = (0x0, 0x4000, 0x10_0000_0040)
STREAMS = st.lists(
    st.tuples(
        st.integers(0, 7),                  # child, modulo the child count
        st.sampled_from(LINES),
        st.integers(0, CACHELINE - 1),      # offset into the line
        st.sampled_from(("shared", "exclusive", "release")),
    ),
    max_size=60,
)
# Owner downgraded by a reader, then re-read, re-owned and released.
DOWNGRADE = [
    (0, 0x4000, 0, "exclusive"),
    (1, 0x4000, 8, "shared"),
    (0, 0x4000, 63, "shared"),
    (1, 0x4000, 1, "exclusive"),
    (2, 0x4000, 2, "shared"),
    (1, 0x4000, 3, "shared"),
    (0, 0x4000, 4, "exclusive"),
    (0, 0x4000, 5, "release"),
    (2, 0x4000, 6, "exclusive"),
]


@settings(max_examples=150)
@given(children=st.integers(1, 8), stream=STREAMS)
@example(children=3, stream=DOWNGRADE)
def test_domain_matches_the_reference_formulation(children, stream):
    domain, reference = HierarchicalDomain(children), ReferenceDomain(children)
    for index, line, offset, kind in stream:
        child, addr = f"child{index % children}", line + offset
        if kind == "release":
            domain.global_agent.release(child, addr)
            reference.global_agent.release(child, addr)
        else:
            exclusive = kind == "exclusive"
            assert domain.access(child, addr, exclusive) == reference.access(
                child, addr, exclusive
            )
        for name, agent in domain.locals.items():
            expected = reference.locals[name]
            assert agent.replicas == expected.replicas
            assert (agent.local_hits, agent.global_requests, agent.fabric_messages) == (
                expected.local_hits,
                expected.global_requests,
                expected.fabric_messages,
            )
        ours, theirs = domain.global_agent, reference.global_agent
        assert (ours.requests, ours.invalidations_sent) == (
            theirs.requests,
            theirs.invalidations_sent,
        )
        assert directory(ours) == directory(theirs)


@settings(max_examples=150)
@given(children=st.integers(1, 8), stream=STREAMS)
@example(children=3, stream=DOWNGRADE)
def test_global_agent_matches_the_reference_formulation(children, stream):
    agent, reference = GlobalAgent(), ReferenceGlobalAgent()
    for index, line, offset, kind in stream:
        child, addr = f"child{index % children}", line + offset
        if kind == "release":
            agent.release(child, addr)
            reference.release(child, addr)
        else:
            exclusive = kind == "exclusive"
            assert agent.acquire(child, addr, exclusive) == reference.acquire(
                child, addr, exclusive
            )
        assert (agent.requests, agent.invalidations_sent) == (
            reference.requests,
            reference.invalidations_sent,
        )
        assert directory(agent) == directory(reference)
