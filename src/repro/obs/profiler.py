"""Simulator profiler: events/sec and per-component time attribution.

Activated with ``repro run --profile`` / ``repro sweep --profile`` (or
the :func:`profile` context manager directly).  While active, every
:meth:`Simulator.run` drains through a profiled mirror of the hot loop
(see ``sim/engine.py``): each callback is attributed to a component and
a sampled subset is wall-timed with ``perf_counter``.  Sampling (one
timed callback per ``sample_every``) keeps the measurement from
distorting the thing it measures; event *counts* are exact.

When no profiler is installed the engine's drain loop is untouched —
one branch per ``run()`` call, zero per-event cost.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import partial
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Tuple

from repro.sim import engine as _engine

DEFAULT_SAMPLE_EVERY = 64


def _attribute(callback) -> str:
    """Component name for a callback: owner's ``name``, else qualname.

    A ``functools.partial`` is charged as the callable it wraps.
    """
    if isinstance(callback, partial):
        callback = callback.func
    owner = getattr(callback, "__self__", None)
    if owner is not None:
        name = getattr(owner, "name", None)
        if isinstance(name, str) and name:
            return name
        return type(owner).__name__
    qualname = getattr(callback, "__qualname__", None) or repr(callback)
    # Collapse closures: "WorkloadDriver._issue_chain.<locals>.step" ->
    # "WorkloadDriver._issue_chain".
    return qualname.split(".<locals>")[0]


class SimProfiler:
    """Accumulates per-component event counts and sampled callback time."""

    def __init__(self, sample_every: int = DEFAULT_SAMPLE_EVERY):
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {sample_every}")
        self.sample_every = int(sample_every)
        self.events: Dict[str, int] = {}
        self.sampled_time_s: Dict[str, float] = {}
        self.samples: Dict[str, int] = {}
        self.total_events = 0
        self.runs = 0
        self.run_wall_s = 0.0
        self._until_sample = self.sample_every

    # Called from the engine's profiled drain loop for every event; it
    # owns invoking the callback so sampled timing brackets exactly the
    # callback body.
    def record(self, callback, args: Tuple) -> None:
        component = _attribute(callback)
        self.events[component] = self.events.get(component, 0) + 1
        self.total_events += 1
        self._until_sample -= 1
        if self._until_sample > 0:
            callback(*args)
            return
        self._until_sample = self.sample_every
        start = perf_counter()
        callback(*args)
        elapsed = perf_counter() - start
        self.sampled_time_s[component] = (
            self.sampled_time_s.get(component, 0.0) + elapsed
        )
        self.samples[component] = self.samples.get(component, 0) + 1

    def add_run(self, wall_s: float, executed: int) -> None:
        """One profiled ``Simulator.run`` finished (any event count)."""
        self.runs += 1
        self.run_wall_s += wall_s

    @property
    def events_per_sec(self) -> float:
        if self.run_wall_s <= 0.0:
            return 0.0
        return self.total_events / self.run_wall_s

    def attribution(self) -> List[Dict[str, object]]:
        """Per-component rows, sorted by estimated time share (desc).

        ``time_frac`` is each component's share of the *sampled* time —
        an unbiased estimate of its share of total callback time.
        """
        total_sampled = sum(self.sampled_time_s.values())
        rows: List[Dict[str, object]] = []
        for component in self.events:
            sampled = self.sampled_time_s.get(component, 0.0)
            rows.append(
                {
                    "component": component,
                    "events": self.events[component],
                    "samples": self.samples.get(component, 0),
                    "sampled_time_s": sampled,
                    "time_frac": (sampled / total_sampled) if total_sampled else 0.0,
                }
            )
        rows.sort(key=lambda r: (-r["time_frac"], -r["events"], r["component"]))  # type: ignore[operator, index]
        return rows

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready summary (attached to records / shown by report)."""
        return {
            "total_events": self.total_events,
            "runs": self.runs,
            "run_wall_s": self.run_wall_s,
            "events_per_sec": self.events_per_sec,
            "sample_every": self.sample_every,
            "components": self.attribution(),
        }

    def render(self, limit: Optional[int] = 12) -> str:
        lines = [
            f"profile: {self.total_events} events in {self.run_wall_s:.3f}s "
            f"({self.events_per_sec:,.0f} events/s, "
            f"{self.runs} run(s), sampling 1/{self.sample_every})"
        ]
        rows = self.attribution()
        shown = rows if limit is None else rows[:limit]
        if shown:
            width = max(9, max(len(str(r["component"])) for r in shown))
            lines.append(f"  {'component':<{width}}  {'events':>10}  {'time%':>6}")
            for row in shown:
                lines.append(
                    f"  {row['component']:<{width}}  {row['events']:>10}"
                    f"  {row['time_frac'] * 100:>5.1f}%"
                )
            if limit is not None and len(rows) > limit:
                lines.append(f"  ... ({len(rows) - limit} more components)")
        return "\n".join(lines)


@contextmanager
def profile(sample_every: int = DEFAULT_SAMPLE_EVERY) -> Iterator[SimProfiler]:
    """Install a :class:`SimProfiler` for the duration of the block.

    Not reentrant: nesting raises, because two active profilers would
    double-invoke callbacks.
    """
    if _engine._PROFILER is not None:
        raise RuntimeError("a simulator profiler is already active")
    profiler = SimProfiler(sample_every=sample_every)
    _engine.set_profiler(profiler)
    try:
        yield profiler
    finally:
        _engine.set_profiler(None)
