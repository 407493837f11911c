"""Performance monitoring unit: request/response timestamp collection.

Mirrors the purpose-designed PMU on the paper's FPGA (§VI-A.3): it
records issue/completion timestamps per request and derives latency
distributions and achieved bandwidth.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.sim.stats import Histogram


class Pmu:
    """Timestamp recorder for one measurement run."""

    def __init__(self, name: str = "pmu") -> None:
        self.name = name
        self._issue_ps: Dict[int, int] = {}
        # Completion-path hot loop appends raw latencies to a plain
        # list; the Histogram is populated lazily in one batched extend
        # when `latencies` is first read (and again only for samples
        # recorded since the previous read).
        self._lat_values: List[int] = []
        self._lat_flushed = 0
        self._latencies = Histogram(f"{name}.latency")
        self.completions: List[Tuple[int, int]] = []   # (req id, completion ps)

    def issued(self, req_id: int, now_ps: int) -> None:
        self._issue_ps[req_id] = now_ps

    def completed(self, req_id: int, now_ps: int) -> None:
        issue = self._issue_ps.pop(req_id, None)
        if issue is None:
            raise KeyError(f"completion for unknown request {req_id}")
        self._lat_values.append(now_ps - issue)
        self.completions.append((req_id, now_ps))

    @property
    def latencies(self) -> Histogram:
        """Latency distribution (batched flush of pending samples)."""
        flushed = self._lat_flushed
        values = self._lat_values
        if flushed < len(values):
            self._latencies.extend(values[flushed:])
            self._lat_flushed = len(values)
        return self._latencies

    def bandwidth_gbps(self, bytes_per_request: int, warmup: int = 0) -> float:
        """Steady-state bandwidth over the completion stream: ``warmup``
        completions are discarded and throughput is measured between
        completions."""
        if len(self.completions) <= warmup + 1:
            raise ValueError("not enough completions for a bandwidth estimate")
        t_start = self.completions[warmup][1]
        n = len(self.completions) - warmup - 1
        t_end = self.completions[-1][1]
        if t_end <= t_start:
            raise ValueError("degenerate completion interval")
        return n * bytes_per_request / (t_end - t_start) * 1_000  # B/ps -> GB/s

    def reset(self) -> None:
        self._issue_ps.clear()
        self._lat_values.clear()
        self._lat_flushed = 0
        self._latencies.reset()
        self.completions.clear()
