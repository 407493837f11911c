"""Event queue and simulator core.

The engine is a classic calendar built on a binary heap.  Heap entries
are immutable tuples ``(when, seq, callback, args, event)`` so that
ordering is decided by C-level integer comparison on ``when``/``seq``
(the monotonically increasing sequence number keeps same-picosecond
events in scheduling order, which keeps protocol interleavings
deterministic run-to-run, and makes every key unique so the comparison
never reaches ``callback``) and the drain loop never calls a Python
``__lt__``.  A tuple is built in one step and dropped when it fires;
nothing is recycled.

Two scheduling tiers exist:

* :meth:`Simulator.schedule` — the validated public path.  It returns
  an :class:`Event` handle that supports :meth:`Event.cancel`.
* :meth:`Simulator.schedule_after` — the trusted fast path used by
  internal components (:class:`repro.sim.component.Component`,
  :class:`repro.sim.component.Port`).  It skips validation, allocates
  no handle and cannot be cancelled.  Callers must pass a non-negative
  delay; a negative delay would rewind simulated time.

Cancellation is lazy: :meth:`Event.cancel` only marks the handle and
bumps the owning simulator's cancel counter; the dead entry is dropped
when it reaches the top of the heap.  When cancelled entries outnumber
half the calendar the heap is compacted in place.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

# Heap compaction threshold: compact when the calendar holds at least
# this many entries and more than half of them are cancelled.
_COMPACT_MIN = 64

# Active profiler, or None.  Module-global (not per-Simulator) so that
# attaching a profiler costs exactly one branch per run() call and the
# unprofiled drain loop stays byte-for-byte identical — the same
# zero-overhead-when-off contract as NULL_TRACER.  Installed via
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


class Event:
    """A scheduled callback.

    Events are created through :meth:`Simulator.schedule`; user code only
    holds them to call :meth:`cancel`.
    """

    __slots__ = ("when", "seq", "callback", "args", "cancelled", "label", "_sim")

    def __init__(
        self,
        when: int,
        seq: int,
        callback: Callable[..., None],
        args: Tuple[Any, ...],
        label: str = "",
        sim: Optional["Simulator"] = None,
    ) -> None:
        self.when = when
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.label = label
        self._sim = sim

    def cancel(self) -> None:
        """Mark the event dead; the engine drops it lazily when popped."""
        if not self.cancelled:
            self.cancelled = True
            sim = self._sim
            if sim is not None:
                sim._note_cancel()

    def __lt__(self, other: "Event") -> bool:
        return (self.when, self.seq) < (other.when, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event({self.label or self.callback!r} @ {self.when}ps, {state})"


class Simulator:
    """Discrete-event simulator with picosecond integer time."""

    def __init__(self) -> None:
        #: Current simulated time in picoseconds; only the engine sets it.
        self.now: int = 0
        self._seq: int = 0
        # Entries are (when, seq, callback, args, event_or_None).
        self._heap: List[tuple] = []
        self._executed: int = 0
        self._cancelled: int = 0

    @property
    def pending(self) -> int:
        """Number of events still in the calendar (including cancelled)."""
        return len(self._heap)

    @property
    def executed(self) -> int:
        """Total number of events that have fired."""
        return self._executed

    def schedule(
        self,
        delay_ps: int,
        callback: Callable[..., None],
        *args: Any,
        label: str = "",
    ) -> Event:
        """Schedule ``callback(*args)`` to fire ``delay_ps`` from now."""
        if delay_ps < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay_ps})")
        seq = self._seq + 1
        self._seq = seq
        when = self.now + delay_ps
        event = Event(when, seq, callback, args, label, self)
        heapq.heappush(self._heap, (when, seq, callback, args, event))
        return event

    def schedule_at(
        self,
        when_ps: int,
        callback: Callable[..., None],
        *args: Any,
        label: str = "",
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute time ``when_ps``."""
        return self.schedule(when_ps - self.now, callback, *args, label=label)

    def schedule_after(
        self,
        delay_ps: int,
        callback: Callable[..., None],
        args: Tuple[Any, ...] = (),
    ) -> None:
        """Trusted fast-path scheduling for internal components.

        Skips validation, allocates no :class:`Event` handle (so the
        event cannot be cancelled or labelled) and passes ``args`` as a
        tuple rather than varargs.  The caller guarantees
        ``delay_ps >= 0``.  Ordering relative to :meth:`schedule` is
        preserved: both paths share one sequence counter.
        """
        seq = self._seq + 1
        self._seq = seq
        heapq.heappush(self._heap, (self.now + delay_ps, seq, callback, args, None))

    def _note_cancel(self) -> None:
        """Lazy-deletion bookkeeping; compacts a mostly-dead calendar."""
        self._cancelled += 1
        heap = self._heap
        if len(heap) >= _COMPACT_MIN and self._cancelled * 2 > len(heap):
            live = [e for e in heap if e[4] is None or not e[4].cancelled]
            heap[:] = live
            heapq.heapify(heap)
            self._cancelled = 0

    def _next_live_when(self) -> Optional[int]:
        """Timestamp of the next non-cancelled event, draining dead ones."""
        heap = self._heap
        while heap:
            when, _seq, _callback, _args, event = heap[0]
            if event is not None and event.cancelled:
                heapq.heappop(heap)
                self._cancelled -= 1
                continue
            return when
        return None

    def run(self, until_ps: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Drain the calendar.

        Runs until the calendar is empty, until simulated time would pass
        ``until_ps``, or until ``max_events`` events have fired, whichever
        comes first.  Returns the number of events executed by this call.

        Regardless of which condition stops the run, when ``until_ps``
        is given and no live event remains at or before it, the clock
        advances to ``until_ps`` (idle time passes).
        """
        if _PROFILER is not None:
            return self._run_profiled(_PROFILER, until_ps, max_events)
        executed_before = self._executed
        # Hot loop: hoist the heap and heappop into locals.  The heap
        # list object is stable across callbacks (callbacks only push
        # onto it), so holding a reference is safe.
        heap = self._heap
        heappop = heapq.heappop
        limit = None if max_events is None else executed_before + max_events
        while heap:
            when, _seq, callback, args, event = heap[0]
            if event is not None and event.cancelled:
                heappop(heap)
                self._cancelled -= 1
                continue
            if until_ps is not None and when > until_ps:
                break
            if limit is not None and self._executed >= limit:
                break
            heappop(heap)
            self.now = when
            self._executed += 1
            if event is not None:
                # Detach the handle so a stale cancel() after firing
                # cannot inflate the lazy-deletion counter.
                event._sim = None
            callback(*args)
        # Unified horizon handling for every exit path (calendar empty,
        # event beyond horizon, or max_events reached).
        if until_ps is not None and until_ps > self.now:
            next_when = self._next_live_when()
            if next_when is None or next_when > until_ps:
                self.now = until_ps
        return self._executed - executed_before

    def _run_profiled(
        self,
        profiler,
        until_ps: Optional[int] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Profiled mirror of :meth:`run`.

        Same drain semantics, but each callback fires through
        ``profiler.record`` (which samples wall time and attributes it
        per component) and the whole call is timed for events/sec.
        Kept as a separate method so the unprofiled hot loop carries
        zero extra per-event work.
        """
        from time import perf_counter

        executed_before = self._executed
        heap = self._heap
        heappop = heapq.heappop
        record = profiler.record
        limit = None if max_events is None else executed_before + max_events
        run_start = perf_counter()
        while heap:
            when, _seq, callback, args, event = heap[0]
            if event is not None and event.cancelled:
                heappop(heap)
                self._cancelled -= 1
                continue
            if until_ps is not None and when > until_ps:
                break
            if limit is not None and self._executed >= limit:
                break
            heappop(heap)
            self.now = when
            self._executed += 1
            if event is not None:
                event._sim = None
            record(callback, args)
        profiler.add_run(perf_counter() - run_start, self._executed - executed_before)
        if until_ps is not None and until_ps > self.now:
            next_when = self._next_live_when()
            if next_when is None or next_when > until_ps:
                self.now = until_ps
        return self._executed - executed_before

    def step(self) -> bool:
        """Fire exactly one live event.  Returns False if none remain."""
        heap = self._heap
        while heap:
            when, _seq, callback, args, event = heapq.heappop(heap)
            if event is not None:
                if event.cancelled:
                    self._cancelled -= 1
                    continue
                event._sim = None
            self.now = when
            self._executed += 1
            callback(*args)
            return True
        return False

    def reset(self) -> None:
        """Clear the calendar and rewind time to zero."""
        # Detach outstanding handles so a stale cancel() on a pre-reset
        # Event cannot inflate the lazy-deletion counter.
        for entry in self._heap:
            event = entry[4]
            if event is not None:
                event._sim = None
        self._heap.clear()
        self.now = 0
        self._seq = 0
        self._executed = 0
        self._cancelled = 0
