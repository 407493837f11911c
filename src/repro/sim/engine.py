"""Event queue and simulator core.

The engine is a classic calendar built on a binary heap.  Heap entries
are immutable tuples ``(when, seq, callback, args)`` so that ordering is
decided by C-level integer comparison on ``when``/``seq`` (the
monotonically increasing sequence number keeps same-picosecond events in
scheduling order, which keeps protocol interleavings deterministic
run-to-run, and makes every key unique so the comparison never reaches
``callback``) and the drain loop never calls a Python ``__lt__``.  A
tuple is built in one step and dropped when it fires; nothing is
recycled.

There is one way in, :meth:`Simulator.schedule_after`: no validation,
no handle, no cancellation.  Callers must pass a non-negative delay; a
negative delay would rewind simulated time.
:meth:`repro.sim.component.Component.schedule` is the guarded entry for
arbitrary components.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Tuple

# Active profiler, or None.  Module-global (not per-Simulator) so that
# attaching a profiler costs exactly one branch per run() call and the
# unprofiled drain loop stays byte-for-byte identical.  Installed via
# set_profiler(); use repro.obs.profiler.profile() as the public entry.
_PROFILER = None


def set_profiler(profiler) -> None:
    """Install (or clear, with ``None``) the process-wide profiler.

    The profiler must expose ``record(callback, args)`` which is
    responsible for *invoking* the callback and attributing its cost,
    and ``add_run(wall_s, executed)`` called once per profiled
    :meth:`Simulator.run`.
    """
    global _PROFILER
    _PROFILER = profiler


class Simulator:
    """Discrete-event simulator with picosecond integer time."""

    def __init__(self) -> None:
        #: Current simulated time in picoseconds; only the engine sets it.
        self.now: int = 0
        self._seq: int = 0
        # Entries are (when, seq, callback, args).
        self._heap: List[tuple] = []

    @property
    def pending(self) -> int:
        """Number of events still in the calendar."""
        return len(self._heap)

    @property
    def executed(self) -> int:
        """Total number of events that have fired.

        Every scheduled event is either still in the calendar or has
        fired (nothing is cancelled), so this is the number scheduled
        less the number pending, and the drain loop counts nothing.
        """
        return self._seq - len(self._heap)

    def schedule_after(
        self,
        delay_ps: int,
        callback: Callable[..., None],
        args: Tuple[Any, ...] = (),
    ) -> None:
        """Schedule ``callback(*args)`` to fire ``delay_ps`` from now.

        The caller guarantees ``delay_ps >= 0``.
        """
        seq = self._seq + 1
        self._seq = seq
        heapq.heappush(self._heap, (self.now + delay_ps, seq, callback, args))

    def run(self) -> int:
        """Drain the calendar; returns the number of events this call fired."""
        if _PROFILER is not None:
            return self._run_profiled(_PROFILER)
        executed_before = self.executed
        # Hot loop: hoist the heap and heappop into locals.  The heap
        # list object is stable across callbacks (callbacks only push
        # onto it), so holding a reference is safe.
        heap = self._heap
        heappop = heapq.heappop
        while heap:
            when, _seq, callback, args = heappop(heap)
            self.now = when
            callback(*args)
        return self._seq - executed_before

    def _run_profiled(self, profiler) -> int:
        """Profiled mirror of :meth:`run`.

        Same drain, but each callback fires through ``profiler.record``
        (which samples wall time and attributes it per component) and
        the whole call is timed for events/sec.  Kept as a separate
        method so the unprofiled hot loop carries zero extra per-event
        work.
        """
        from time import perf_counter

        executed_before = self.executed
        heap = self._heap
        heappop = heapq.heappop
        record = profiler.record
        run_start = perf_counter()
        while heap:
            when, _seq, callback, args = heappop(heap)
            self.now = when
            record(callback, args)
        executed = self._seq - executed_before
        profiler.add_run(perf_counter() - run_start, executed)
        return executed
