"""Hierarchical coherence for multi-node supernodes (§VIII).

As the coherence domain scales past one host, a flat directory drowns
in cross-fabric traffic.  The paper's planned mitigation: each child
node runs a *local agent* that fields its own coherence transactions
and consults a single *global agent* only when it lacks the requested
replica.  This module implements that two-level protocol functionally
(line ownership tracking) and accounts the fabric messages each level
generates, so the traffic savings are measurable (see the
``hierarchical coherence`` ablation bench).
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.mem.address import LINE_MASK


class LineState:
    """One directory line: its exclusive child, if any, and its sharers."""

    __slots__ = ("owner", "sharers")

    def __init__(self) -> None:
        self.owner: Optional[str] = None
        self.sharers: Set[str] = set()


class GlobalAgent:
    """The supernode's root coherence point."""

    def __init__(self, name: str = "global-agent") -> None:
        self.name = name
        self._lines: Dict[int, LineState] = {}
        self.requests = 0
        self.invalidations_sent = 0

    def acquire(self, child: str, addr: int, exclusive: bool) -> Tuple[Set[str], int]:
        """Grant ``child`` access; returns (children to invalidate, msgs)."""
        self.requests += 1
        addr &= LINE_MASK
        line = self._lines.get(addr)
        if line is None:
            line = self._lines[addr] = LineState()
        owner = line.owner
        if exclusive:
            # The line takes a fresh sharer set, so the old one, less the
            # requester, plus a foreign owner, is the set to invalidate.
            to_invalidate = line.sharers
            to_invalidate.discard(child)
            if owner is not None and owner != child:
                to_invalidate.add(owner)
            line.owner = child
            line.sharers = set()
        else:
            to_invalidate = set()
            if owner is not None and owner != child:
                # Downgrade the owner to sharer.
                to_invalidate.add(owner)
                line.sharers.add(owner)
                line.owner = None
            line.sharers.add(child)
        self.invalidations_sent += len(to_invalidate)
        # Request + grant, then invalidate + ack per child.
        return to_invalidate, 2 + 2 * len(to_invalidate)

    def release(self, child: str, addr: int) -> None:
        line = self._lines.get(addr & LINE_MASK)
        if line is not None:
            if line.owner == child:
                line.owner = None
            line.sharers.discard(child)


class LocalAgent:
    """A child node's coherence agent: its replicas and traffic counters.

    Accesses the replicas can satisfy never reach the global agent.  The
    owning :class:`HierarchicalDomain` runs the miss path, so an agent
    holds no reference back to the global agent or its siblings.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.replicas: Dict[int, bool] = {}   # line -> exclusive?
        self.local_hits = 0
        self.global_requests = 0
        self.fabric_messages = 0

    @property
    def filter_rate(self) -> float:
        total = self.local_hits + self.global_requests
        return self.local_hits / total if total else 0.0


class HierarchicalDomain:
    """A supernode: one global agent + N local agents over a fabric."""

    def __init__(self, children: int) -> None:
        if children <= 0:
            raise ValueError("need at least one child node")
        self.global_agent = GlobalAgent()
        self.locals: Dict[str, LocalAgent] = {
            f"child{i}": LocalAgent(f"child{i}") for i in range(children)
        }

    def access(self, child: str, addr: int, exclusive: bool = False) -> bool:
        """One access from ``child``; returns True if satisfied locally.

        A miss asks the global agent for the line, then drops the line
        from every sibling replica the grant invalidates.
        """
        addr &= LINE_MASK
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

    @property
    def total_fabric_messages(self) -> int:
        return sum(agent.fabric_messages for agent in self.locals.values())

    def flat_equivalent_messages(self, accesses: int) -> int:
        """Traffic a flat (no local agent) directory would generate:
        every access crosses the fabric (request + grant)."""
        return 2 * accesses
