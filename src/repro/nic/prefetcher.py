"""Multi-stride RPC prefetcher (§V-B.2).

Records cache-miss addresses, detects per-stream strides, and issues
prefetches into the HMC.  Two properties drive the Fig. 18b results:

* training cost — a stream must repeat its stride ``train_threshold``
  times before prefetches launch, so short streams (small messages,
  fragments between nesting hops) see little coverage;
* pointer chasing — a nesting hop breaks the stream, so deeply nested
  messages (Bench2) defeat the prefetcher almost entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


@dataclass
class StrideEntry:
    """One tracked stream in the stride table."""

    last_addr: int
    stride: int = 0
    confidence: int = 0


class MultiStridePrefetcher:
    """Stride detector over the miss stream."""

    def __init__(
        self,
        table_entries: int = 16,
        train_threshold: int = 2,
        degree: int = 4,
        match_window: int = 8192,
    ) -> None:
        if table_entries <= 0 or degree <= 0 or train_threshold <= 0:
            raise ValueError("prefetcher parameters must be positive")
        self.table_entries = table_entries
        self.train_threshold = train_threshold
        self.degree = degree
        self.match_window = match_window
        self._table: List[StrideEntry] = []
        self.misses_observed = 0
        self.prefetches_issued = 0

    def observe_miss(self, addr: int) -> List[int]:
        """Record a demand miss; returns addresses to prefetch (if any)."""
        self.misses_observed += 1
        entry = self._match(addr)
        if entry is None:
            self._insert(addr)
            return []
        stride = addr - entry.last_addr
        if stride == 0:
            return []
        if stride == entry.stride:
            entry.confidence += 1
        else:
            entry.stride = stride
            entry.confidence = 1
        entry.last_addr = addr
        if entry.confidence >= self.train_threshold:
            prefetches = [addr + entry.stride * (i + 1) for i in range(self.degree)]
            self.prefetches_issued += len(prefetches)
            return prefetches
        return []

    def _match(self, addr: int) -> Optional[StrideEntry]:
        best = None
        best_distance = self.match_window + 1
        for entry in self._table:
            distance = abs(addr - entry.last_addr)
            if distance <= self.match_window and distance < best_distance:
                best = entry
                best_distance = distance
        return best

    def _insert(self, addr: int) -> None:
        if len(self._table) >= self.table_entries:
            self._table.pop(0)
        self._table.append(StrideEntry(last_addr=addr))

    def reset(self) -> None:
        self._table.clear()
        self.misses_observed = 0
        self.prefetches_issued = 0


class PrefetchBuffer:
    """In-flight and arrived prefetches with arrival timestamps."""

    def __init__(self) -> None:
        self._arrival_ps: Dict[int, int] = {}

    def issue(self, addr: int, now_ps: int, latency_ps: int) -> None:
        # Re-issues keep the earliest arrival.
        arrival = now_ps + latency_ps
        existing = self._arrival_ps.get(addr)
        if existing is None or arrival < existing:
            self._arrival_ps[addr] = arrival

    def residual_ps(self, addr: int, now_ps: int, miss_ps: int) -> Optional[int]:
        """Remaining wait if ``addr`` was prefetched, else None.

        A prefetch that has fully arrived costs nothing extra; one still
        in flight exposes only its residual latency (timeliness).
        """
        arrival = self._arrival_ps.pop(addr, None)
        if arrival is None:
            return None
        return max(0, min(arrival - now_ps, miss_ps))

    @property
    def outstanding(self) -> int:
        return len(self._arrival_ps)
