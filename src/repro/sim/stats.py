"""Statistics primitive: a histogram with exact quantiles.

Experiments report medians, percentiles and means the same way the
paper's performance-monitoring unit does (request/response timestamps).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional


class Histogram:
    """Sample store supporting exact quantiles.

    Keeps raw samples; experiment populations here are small (thousands),
    so exact order statistics are cheaper than maintaining sketches and
    match how the paper reports medians and 25th/75th percentiles.
    """

    def __init__(self, name: str = "histogram") -> None:
        self.name = name
        self._samples: List[float] = []
        self._sorted: Optional[List[float]] = None

    def add(self, value: float) -> None:
        self._samples.append(value)
        self._sorted = None

    def extend(self, values: Iterable[float]) -> None:
        self._samples.extend(values)
        self._sorted = None

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def samples(self) -> List[float]:
        return list(self._samples)

    def _ensure_sorted(self) -> List[float]:
        if self._sorted is None:
            self._sorted = sorted(self._samples)
        return self._sorted

    def percentile(self, q: float) -> float:
        """Exact linear-interpolated percentile, ``q`` in [0, 100]."""
        data = self._ensure_sorted()
        if not data:
            raise ValueError(f"histogram {self.name!r} is empty")
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile {q} out of range")
        if len(data) == 1:
            return data[0]
        rank = (q / 100.0) * (len(data) - 1)
        low = int(math.floor(rank))
        high = int(math.ceil(rank))
        if low == high:
            return data[low]
        frac = rank - low
        return data[low] * (1.0 - frac) + data[high] * frac

    @property
    def median(self) -> float:
        return self.percentile(50.0)

    @property
    def p25(self) -> float:
        return self.percentile(25.0)

    @property
    def p75(self) -> float:
        return self.percentile(75.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    @property
    def p999(self) -> float:
        return self.percentile(99.9)

    @property
    def min(self) -> float:
        return self._ensure_sorted()[0]

    @property
    def max(self) -> float:
        return self._ensure_sorted()[-1]

    @property
    def mean(self) -> float:
        if not self._samples:
            raise ValueError(f"histogram {self.name!r} is empty")
        return sum(self._samples) / len(self._samples)

    @property
    def stddev(self) -> float:
        if len(self._samples) < 2:
            return 0.0
        mean = self.mean
        var = sum((s - mean) ** 2 for s in self._samples) / (len(self._samples) - 1)
        return math.sqrt(var)

    def summary(self) -> Dict[str, float]:
        """Five-number-ish summary (plus SLO tails) used by the harness."""
        return {
            "count": float(len(self._samples)),
            "min": self.min,
            "p25": self.p25,
            "median": self.median,
            "p75": self.p75,
            "p99": self.p99,
            "p999": self.p999,
            "max": self.max,
            "mean": self.mean,
        }

    def reset(self) -> None:
        self._samples.clear()
        self._sorted = None
