"""A fixed reference simulation that measures how fast the host runs.

On a shared host the benchmark's CPU slows by tens of percent for seconds
to minutes at a time, as neighbours load the same physical cores, so two
runs of identical code can differ by a third.  :class:`Clock` times a small
fixed discrete-event simulation between the ops of a pass, and
:meth:`Clock.calm` turns host seconds into *calm-host seconds*: seconds
times ``CALM_S`` over the reference's mean time in the same run.  Interleaved
with the ops, the reference sees the same slowdowns as the ops around it;
timed between passes only, it tracks them worse than no scaling at all.

The reference is the benchmark's own code, so no change to the program
moves it.  It does what the simulator's hot path does, in miniature (heap
calendar, per-set cache dicts with LRU order, MESI state lookups, slotted
components), because a tighter loop is slowed by a busy neighbour more than
the simulator is and tracks it less well.
"""

from __future__ import annotations

import gc
import heapq
import random
import statistics
import time
from typing import List

#: Seconds one :func:`reference_s` takes on the calm host that reported
#: times refer to.  A definition, not a measurement: on a 2-vCPU Xeon VM at
#: 2.1 GHz under CPython 3.11 a run takes 0.021-0.04 s as neighbours come
#: and go.
CALM_S = 0.03
OPS = 9_000
#: Reference time per second of op time.
SHARE = 0.25

_NEXT_STATE = {
    ("I", False): "E", ("I", True): "M", ("E", False): "E", ("E", True): "M",
    ("S", False): "S", ("S", True): "M", ("M", False): "M", ("M", True): "M",
}


class _Calendar:
    __slots__ = ("now", "heap", "seq")

    def __init__(self) -> None:
        self.now, self.heap, self.seq = 0, [], 0

    def after(self, delay: int, callback, args: tuple) -> None:
        self.seq += 1
        heapq.heappush(self.heap, [self.now + delay, self.seq, callback, args])

    def run(self) -> None:
        heap, pop = self.heap, heapq.heappop
        while heap:
            when, _seq, callback, args = pop(heap)
            self.now = when
            callback(*args)


class _Device:
    __slots__ = ("calendar", "sets", "ways", "latency", "done")

    def __init__(self, calendar: _Calendar, latency: int) -> None:
        self.calendar, self.latency = calendar, latency
        self.sets: List[dict] = [{} for _ in range(256)]
        self.ways, self.done = 8, 0

    def request(self, line: int, write: bool) -> None:
        lines = self.sets[line & 255]
        state = lines.pop(line, "I")
        if state == "I" and len(lines) >= self.ways:
            del lines[next(iter(lines))]  # evict the least recently used
        lines[line] = _NEXT_STATE[state, write]
        delay = self.latency if state != "I" else self.latency * 3
        self.calendar.after(delay, self.complete, ())

    def complete(self) -> None:
        self.done += 1


def _simulate(ops: int) -> int:
    rng = random.Random(7)
    calendar = _Calendar()
    devices = [_Device(calendar, 40 + i) for i in range(4)]
    for k in range(ops):
        calendar.after(k * 5, devices[k & 3].request,
                       (rng.randrange(8192), rng.random() < 0.5))
    calendar.run()
    return sum(device.done for device in devices)


def reference_s() -> float:
    """Host time of one run of the reference simulation.

    The cyclic collector is off meanwhile: its passes would cost time in
    proportion to the program's heap, which a change to the program moves.
    The reference's garbage holds no cycles and is freed without it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _simulate(OPS)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Reference timings taken between ops, and the calm-host scale they give.

    After each op the clock owes ``SHARE`` of the op's time to the
    reference and pays it in whole runs, so reference time follows op time
    through the pass: long ops are followed by several runs, a string of
    short ones by one.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.owed = 0.0

    def after_op(self, op_s: float) -> float:
        """Time the reference for ``op_s`` of op time; returns the seconds spent."""
        self.owed += op_s * SHARE
        spent = 0.0
        while self.owed > 0:
            self.samples.append(reference_s())
            self.owed -= self.samples[-1]
            spent += self.samples[-1]
        return spent

    def calm(self, host_s: float) -> float:
        """``host_s`` host seconds of this run, in calm-host seconds."""
        return host_s * CALM_S / statistics.mean(self.samples)
