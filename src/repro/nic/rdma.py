"""RDMA network fabric delivering RAO/RPC requests to the NIC.

The evaluation measures NIC-side processing; the network is a request
source with a fixed node-to-node latency and per-message serialization,
matching the five-node topology of Fig. 9.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.sim.component import Component
from repro.sim.engine import Simulator


@dataclass
class RemoteNode:
    """A peer server issuing requests into the fabric."""

    node_id: int
    name: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            self.name = f"node{self.node_id}"


class RdmaFabric(Component):
    """Star fabric: remote nodes -> the NIC under test."""

    def __init__(
        self,
        sim: Simulator,
        nodes: int = 4,
        latency_ps: int = 1_500_000,     # ~1.5 us network one-way
        message_gap_ps: int = 5_000,     # per-message serialization at the port
        name: str = "rdma",
    ) -> None:
        super().__init__(sim, name)
        if nodes <= 0:
            raise ValueError("fabric needs at least one remote node")
        self.nodes = [RemoteNode(i + 1) for i in range(nodes)]
        self.latency_ps = latency_ps
        self.message_gap_ps = message_gap_ps
        self._port_free_ps: Dict[int, int] = {n.node_id: 0 for n in self.nodes}
        self.messages = 0

    def send(
        self,
        source: int,
        payload: object,
        deliver: Callable[[object], None],
    ) -> int:
        """Inject a message from ``source``; returns its delivery time."""
        if source not in self._port_free_ps:
            raise ValueError(f"unknown source node {source}")
        start = max(self.sim.now, self._port_free_ps[source])
        self._port_free_ps[source] = start + self.message_gap_ps
        arrive = start + self.latency_ps
        self.schedule(arrive - self.sim.now, deliver, payload)
        self.messages += 1
        return arrive

    def broadcast_stream(
        self,
        payloads: List[object],
        deliver: Callable[[object], None],
    ) -> None:
        """Spread a request stream round-robin over all remote nodes."""
        for i, payload in enumerate(payloads):
            self.send(self.nodes[i % len(self.nodes)].node_id, payload, deliver)
