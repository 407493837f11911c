"""Hierarchical coherence for multi-node supernodes (§VIII).

As the coherence domain scales past one host, a flat directory drowns
in cross-fabric traffic.  The paper's planned mitigation: each child
node runs a *local agent* that fields its own coherence transactions
and consults a single *global agent* only when it lacks the requested
replica.  This module implements that two-level protocol functionally
(line ownership tracking) and accounts the fabric messages each level
generates, so the traffic savings are measurable (see the
``hierarchical coherence`` ablation bench).

The global agent's directory uses the home agent's encoding (§II-B, as
``cache/llc.py`` models it): per line, an owner index and a sharer
bitmask.  One kernel, :meth:`HierarchicalDomain.access_many`, runs every
access, a whole op stream per call.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.mem.address import LINE_MASK


def _column(name: str) -> property:
    return property(lambda agent: getattr(agent._domain, name)[agent._index])


class LocalAgent:
    """A child node's coherence agent: its replicas and traffic counters.

    A read-only view of one child's entries in its domain's columns.  The
    domain keeps no views (:attr:`HierarchicalDomain.locals` makes fresh
    ones), so a view's reference to its domain forms no cycle.
    """

    __slots__ = ("name", "_domain", "_index")

    def __init__(self, domain: "HierarchicalDomain", index: int) -> None:
        self.name = f"child{index}"
        self._domain = domain
        self._index = index

    replicas = _column("replicas")   # line -> exclusive?
    local_hits = _column("local_hits")
    global_requests = _column("global_requests")
    fabric_messages = _column("fabric_messages")

    @property
    def filter_rate(self) -> float:
        total = self.local_hits + self.global_requests
        return self.local_hits / total if total else 0.0


class HierarchicalDomain:
    """A supernode: one global agent + N local agents over a fabric.

    Children are numbered ``0..N-1``.  The global agent's ``directory``
    maps a line to ``(owner or -1, sharer bitmask)``.  An owner holds the
    line's only replica, exclusive: it never misses on the line, and no
    entry has both an owner and sharers.
    """

    def __init__(self, children: int) -> None:
        if children <= 0:
            raise ValueError("need at least one child node")
        self.directory: Dict[int, Tuple[int, int]] = {}
        self.replicas: List[Dict[int, bool]] = [{} for _ in range(children)]
        self.local_hits = [0] * children
        self.global_requests = [0] * children
        self.fabric_messages = [0] * children

    @property
    def locals(self) -> Dict[int, LocalAgent]:
        """A fresh view of each child's agent, keyed by child index."""
        return {child: LocalAgent(self, child) for child in range(len(self.replicas))}

    def access(self, child: int, addr: int, exclusive: bool = False) -> bool:
        """One access from ``child``; returns True if satisfied locally."""
        requests = self.global_requests[child]
        self.access_many((child,), (addr,), (exclusive,))
        return self.global_requests[child] == requests

    def access_many(
        self, children: Iterable[int], addrs: Iterable[int], exclusive: Iterable[bool]
    ) -> None:
        """Run one op stream, adding to each child's counters.

        Op ``k``: child ``children[k]`` reads ``addrs[k]``, or writes it if
        ``exclusive[k]``.  A held replica serves it (a shared one only a
        read).  A miss asks the global agent (request + grant), and each
        child the grant invalidates drops its replica (invalidate + ack).
        """
        directory, replicas = self.directory, self.replicas
        hits, requests, messages = (
            self.local_hits, self.global_requests, self.fabric_messages
        )
        for child, addr, excl in zip(children, addrs, exclusive):
            addr &= LINE_MASK
            held = replicas[child]
            if held.get(addr, -1) >= excl:   # True serves both, False reads
                hits[child] += 1
                continue
            requests[child] += 1
            held[addr] = excl
            owner, sharers = directory.get(addr, (-1, 0))
            if owner >= 0:
                # Invalidate a foreign owner, or downgrade it to sharer on
                # a read.  Known gap: a downgrade drops its replica too.
                replicas[owner].pop(addr, None)
                directory[addr] = (child, 0) if excl else (-1, 1 << owner | 1 << child)
                messages[child] += 4
            elif excl:
                directory[addr] = (child, 0)
                victims = sharers & ~(1 << child)
                sent = 2
                while victims:
                    low = victims & -victims
                    replicas[low.bit_length() - 1].pop(addr, None)
                    victims ^= low
                    sent += 2
                messages[child] += sent
            else:
                directory[addr] = (-1, sharers | 1 << child)
                messages[child] += 2

    @property
    def total_fabric_messages(self) -> int:
        return sum(self.fabric_messages)

    def flat_equivalent_messages(self, accesses: int) -> int:
        """Traffic a flat (no local agent) directory would generate:
        every access crosses the fabric (request + grant)."""
        return 2 * accesses
