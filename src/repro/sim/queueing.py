"""Bounded queues.

NIC rings are finite; back-pressure is what turns latency parameters
into bandwidth curves.  :class:`BoundedQueue` is an occupancy-tracked
FIFO.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List


class QueueFullError(RuntimeError):
    """Raised when pushing into a full :class:`BoundedQueue`."""


class BoundedQueue:
    """FIFO with a fixed capacity and occupancy statistics.

    ``policy`` picks what a push into a full queue does: ``"raise"``
    (the default, and the only behaviour before the fault layer
    existed) raises :class:`QueueFullError`; ``"drop"`` counts the
    item in :attr:`dropped` and discards it — the lossy-ingress model
    degraded-mode NICs use, where overflow is an availability metric,
    not a crash.
    """

    POLICIES = ("raise", "drop")

    def __init__(
        self, capacity: int, name: str = "queue", policy: str = "raise"
    ) -> None:
        if capacity <= 0:
            raise ValueError("queue capacity must be positive")
        if policy not in self.POLICIES:
            raise ValueError(
                f"queue policy must be one of {', '.join(self.POLICIES)}; "
                f"got {policy!r}"
            )
        self.capacity = capacity
        self.name = name
        self.policy = policy
        self._items: Deque[Any] = deque()
        self.max_occupancy = 0
        self.total_pushed = 0
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def full(self) -> bool:
        return len(self._items) >= self.capacity

    @property
    def empty(self) -> bool:
        return not self._items

    def push(self, item: Any) -> bool:
        """Enqueue ``item``; returns True unless the drop policy ate it."""
        if self.full:
            if self.policy == "drop":
                self.dropped += 1
                return False
            raise QueueFullError(f"queue {self.name!r} full (capacity {self.capacity})")
        self._items.append(item)
        self.total_pushed += 1
        if len(self._items) > self.max_occupancy:
            self.max_occupancy = len(self._items)
        return True

    def try_push(self, item: Any) -> bool:
        """Push without raising; returns False when full."""
        if self.full:
            return False
        self.push(item)
        return True

    def pop(self) -> Any:
        if not self._items:
            raise IndexError(f"queue {self.name!r} is empty")
        return self._items.popleft()

    def peek(self) -> Any:
        if not self._items:
            raise IndexError(f"queue {self.name!r} is empty")
        return self._items[0]


def drain(queue: BoundedQueue) -> List[Any]:
    """Pop everything out of ``queue`` (test helper)."""
    items = []
    while not queue.empty:
        items.append(queue.pop())
    return items
