"""Generic serialized link with latency and bandwidth occupancy."""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.component import Component
from repro.sim.engine import Simulator


class Link(Component):
    """A point-to-point link: fixed propagation latency plus a shared
    serialization resource (bytes move at ``gbps`` gigabytes/second).

    ``send`` schedules delivery at ``now + serialization + latency`` and
    back-pressures by stacking serialization time when the link is busy.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        latency_ps: int,
        gbps: float,
    ) -> None:
        super().__init__(sim, name)
        if gbps <= 0:
            raise ValueError("link bandwidth must be positive")
        self.latency_ps = latency_ps
        self.gbps = gbps
        self._busy_until_ps = 0
        self.bytes_moved = 0
        self.packets = 0

    def serialization_ps(self, size_bytes: int) -> int:
        return round(size_bytes / self.gbps * 1_000)

    def send(
        self,
        size_bytes: int,
        on_delivered: Optional[Callable[[], None]] = None,
        payload: Any = None,
        handler: Optional[Callable[[Any], None]] = None,
    ) -> int:
        """Transmit ``size_bytes``; returns the delivery time (ps).

        Exactly one of ``on_delivered`` / ``handler`` may be provided;
        ``handler`` receives ``payload`` at delivery.
        """
        start = max(self.sim.now, self._busy_until_ps)
        tx_done = start + self.serialization_ps(size_bytes)
        self._busy_until_ps = tx_done
        delivered = tx_done + self.latency_ps
        self.bytes_moved += size_bytes
        self.packets += 1
        if on_delivered is not None:
            self.schedule(delivered - self.sim.now, on_delivered)
        elif handler is not None:
            self.schedule(delivered - self.sim.now, handler, payload)
        return delivered

    @property
    def utilization_window_ps(self) -> int:
        """How far ahead of now the link is booked."""
        return max(0, self._busy_until_ps - self.sim.now)
