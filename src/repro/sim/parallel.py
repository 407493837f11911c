"""Conservative parallel simulation of Supernode coherent traffic.

Supernode hosts are independent builder-constructed systems that only
interact through the switch fabric, so an N-host run parallelises with
the classic conservative (windowed lockstep) scheme:

* every host becomes a **lane**: its share of the op stream, a host-
  local virtual clock, a mirror of its local-agent replica set, and a
  full replica of the global directory;
* simulated time advances in **windows** whose width is the minimum
  fabric-crossing latency between two hosts (the lookahead) — within a
  window no host's action can affect another host, so lanes run
  completely independently;
* at each window barrier lanes exchange the global-coherence requests
  they issued, merge them into one deterministic stream (sorted by
  issue time, then host index, then per-host sequence), and every lane
  applies the *whole* merged stream to its replicated directory.  All
  replicas therefore evolve identically, with no coordinator process.

Because the merged fabric-boundary event order is a pure function of
the window schedule — never of process count or OS scheduling — running
the lanes serially in-process (``jobs=1``) and running them on forked
worker processes (``jobs>=2``) produce **bit-identical** measurements.
The parity tests and the CI ``parallel-smoke`` job pin exactly that.

Cross-process exchange is pickle-free: each lane owns a fixed-size
``multiprocessing.Array('q')`` outbox (a header carrying the lane's
next-event time plus flat ``(t, seq, line, excl)`` request slots), and
two ``multiprocessing.Barrier`` waits per window separate the write and
read phases.  A lane whose calendar drains early keeps participating in
the barriers with an empty outbox until every lane is done, so an
idle host can never stall the window sync.

Fault plans work in windowed mode too: each lane evaluates the
time-windowed plan queries against its own clock and consumes
corruption draws from a lane-local (per-link) counter, so fault
outcomes are equally independent of the process count.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: Per-access issue pacing of the windowed model (ps).  Keeps every
#: lane's virtual clock advancing even through local-hit streaks, and
#: bounds how many requests one lane can emit per window (used to size
#: the shared outboxes).  Matches the legacy synchronous fault path's
#: pacing so fault-plan timelines mean the same thing in both models.
WINDOW_ISSUE_GAP_PS = 50_000

#: Window width stand-in for single-host systems (no fabric crossing
#: exists, so one window covers the whole run).
_NO_CROSSING_PS = 1 << 62

_FORK_CONTEXT = "fork"


class ParallelSimError(RuntimeError):
    """The windowed-parallel runner hit an internal invariant failure."""


def min_crossing_ps(supernode) -> int:
    """Minimum one-way fabric latency between two distinct hosts (ps).

    This is the conservative lookahead: within a window narrower than
    this, no host's coherence action can reach another host.  Computed
    from static routes (without the ``packets_routed`` side effect of
    :meth:`~repro.cxl.switch.SwitchFabric.latency_ps`).
    """
    fabric = supernode.fabric
    hosts = sorted(supernode.hosts)
    best: Optional[int] = None
    for i, src in enumerate(hosts):
        for dst in hosts[i + 1:]:
            path = fabric.route(src, dst)
            cost = sum(fabric.switch(name).traversal_ps for name in path)
            if best is None or cost < best:
                best = cost
    return best if best is not None else _NO_CROSSING_PS


def remote_latency_table(supernode) -> Dict[str, int]:
    """Paid fabric latency per host for one remote access (ps).

    Reads :attr:`Supernode.miss_routes`, the round trip
    :meth:`Supernode.coherent_access` charges a miss, so lanes never
    route (or mutate switch counters) inside the hot loop.
    """
    return {
        host: supernode.miss_routes[host][0] for host in sorted(supernode.hosts)
    }


# ---------------------------------------------------------------------
# Lanes
# ---------------------------------------------------------------------
@dataclass
class _FaultContext:
    """Static fault-plan bindings one lane evaluates on its own clock."""

    controller: object
    fabric_name: str
    link_key: Tuple[str, str]
    recovery_times: Tuple[int, ...]


class _Lane:
    """One host's share of the run: ops, clock, replicas, counters."""

    __slots__ = (
        "idx", "host", "lines", "excl", "delays", "n", "i", "seq",
        "remote_latency_ps", "clock", "replicas",
        "accesses", "latency_ps", "local_hits", "global_requests",
        "remote_accesses", "naks",
        "fault", "attempted", "completed", "dropped", "retries",
        "corrupted", "draws", "min_after", "op_t", "op_attempt",
        "op_redeliver", "op_started",
    )

    def __init__(
        self,
        idx: int,
        host: str,
        lines: Sequence[int],
        excl: Sequence[int],
        delays: Sequence[int],
        remote_latency_ps: int,
        fault: Optional[_FaultContext] = None,
    ) -> None:
        self.idx = idx
        self.host = host
        self.lines = list(lines)
        self.excl = list(excl)
        self.delays = list(delays)
        self.n = len(self.lines)
        self.i = 0
        self.seq = 0
        self.remote_latency_ps = remote_latency_ps
        self.clock = 0
        self.replicas: Dict[int, bool] = {}
        self.accesses = 0
        self.latency_ps = 0
        self.local_hits = 0
        self.global_requests = 0
        self.remote_accesses = 0
        self.naks = 0
        self.fault = fault
        self.attempted = 0
        self.completed = 0
        self.dropped = 0
        self.retries = 0
        self.corrupted = 0
        self.draws = 0
        self.min_after: List[int] = (
            [-1] * len(fault.recovery_times) if fault is not None else []
        )
        # Mid-op resume state for the faulted path (retries can carry an
        # op across window boundaries).
        self.op_t: Optional[int] = None
        self.op_attempt = 0
        self.op_redeliver = 0
        self.op_started = False

    # -- hot loop -------------------------------------------------------
    def probe(self, line: int, excl: bool) -> int:
        """Local-agent probe; returns the paid latency (0 on a hit).

        Mirrors :meth:`HierarchicalDomain.access`'s local probe + the
        supernode miss cost: a miss fills the replica immediately (own
        fills are visible to this lane within the window) and the
        matching global request is emitted by the caller for the
        barrier merge.
        """
        held = self.replicas.get(line)
        if held is not None and (not excl or held):
            self.local_hits += 1
            return 0
        self.global_requests += 1
        self.remote_accesses += 1
        self.replicas[line] = excl
        return self.remote_latency_ps

    def run_window(
        self, window_end: int, out: List[Tuple[int, int, int, int, int]]
    ) -> int:
        """Advance this lane to ``window_end``; returns the next event
        time (``-1`` once the lane's calendar is empty).

        Emitted global requests are appended to ``out`` as
        ``(t, host_idx, seq, line, excl)`` tuples.
        """
        if self.fault is not None:
            return self._run_window_faulted(window_end, out)
        while self.i < self.n:
            t = self.clock + self.delays[self.i] + WINDOW_ISSUE_GAP_PS
            if t >= window_end:
                return t
            line = self.lines[self.i]
            excl = bool(self.excl[self.i])
            held = self.replicas.get(line)
            if held is not None and (not excl or held):
                self.local_hits += 1
                paid = 0
            else:
                self.global_requests += 1
                self.remote_accesses += 1
                self.replicas[line] = excl
                out.append((t, self.idx, self.seq, line, int(excl)))
                self.seq += 1
                paid = self.remote_latency_ps
                self.latency_ps += paid
            self.accesses += 1
            self.clock = t + paid
            self.i += 1
        return -1

    # -- faulted variant ------------------------------------------------
    def _corrupt_hit(self, t: int) -> bool:
        """Lane-local corruption draws (one per active msg_corrupt event).

        The legacy synchronous path consumes a controller-global draw
        counter; a windowed lane draws from its own per-link counter so
        outcomes stay independent of how lanes interleave — identical
        for the serial and parallel windowed runs by construction.
        """
        from repro.faults.plan import corrupt_draw

        ctx = self.fault
        controller = ctx.controller
        hit = False
        key_str = "--".join(ctx.link_key)
        for event in controller._corrupts.get(ctx.link_key, ()):
            if event.active_at(t):
                index = self.draws
                self.draws += 1
                if corrupt_draw(controller.seed, key_str, index, event.rate):
                    hit = True
        return hit

    def _run_window_faulted(
        self, window_end: int, out: List[Tuple[int, int, int, int, int]]
    ) -> int:
        """Fault-aware window step, mirroring the legacy virtual-clock
        loop (:meth:`WorkloadDriver._drive_supernode_faulted`) op for op:
        link/fabric outages raise-or-retry, down hosts NAK, degraded
        latency scales by the active factor, corrupted completions
        retransmit, and completions/drops feed the availability stats.
        """
        from repro.core.supernode import HostDownError
        from repro.faults.controller import FaultActiveError

        ctx = self.fault
        controller = ctx.controller
        retry = controller.retry
        key = ctx.link_key
        fabric_name = ctx.fabric_name
        while True:
            if self.op_t is None:
                if self.i >= self.n:
                    return -1
                self.op_t = (
                    self.clock + self.delays[self.i] + WINDOW_ISSUE_GAP_PS
                )
                self.op_attempt = 0
                self.op_redeliver = 0
                self.op_started = False
            t = self.op_t
            if t >= window_end:
                return t
            if not self.op_started:
                self.op_started = True
                self.attempted += 1
            line = self.lines[self.i]
            excl = bool(self.excl[self.i])
            if controller.link_down(key, t) or controller.node_down(
                fabric_name, t
            ):
                down: Optional[str] = "link"
            elif controller.node_down(self.host, t):
                self.naks += 1
                down = "host"
            else:
                down = None
            if down is not None:
                if not controller.degraded:
                    if down == "host":
                        raise HostDownError(
                            f"supernode host {self.host!r} is down: coherent "
                            f"access NAKed ({self.naks} so far)"
                        )
                    raise FaultActiveError(
                        f"path {key[0]}--{key[1]} is down at {t}ps"
                    )
                if self.op_attempt < retry.max_retries:
                    self.retries += 1
                    self.op_t = t + retry.delay_ps(self.op_attempt)
                    self.op_attempt += 1
                    continue
                self.dropped += 1
                self.clock = t
                self._finish_op()
                continue
            held = self.replicas.get(line)
            if held is not None and (not excl or held):
                self.local_hits += 1
                latency = 0
            else:
                self.global_requests += 1
                self.remote_accesses += 1
                self.replicas[line] = excl
                out.append((t, self.idx, self.seq, line, int(excl)))
                self.seq += 1
                latency = self.remote_latency_ps
            factor = controller.link_factor(key, t)
            paid = latency if factor == 1.0 else int(round(latency * factor))
            t += paid
            if self._corrupt_hit(t):
                self.corrupted += 1
                if not controller.degraded:
                    raise FaultActiveError(
                        f"message on {key[0]}--{key[1]} corrupted at {t}ps"
                    )
                if self.op_redeliver < retry.max_retries:
                    self.op_redeliver += 1
                    self.retries += 1
                    self.op_t = t  # retransmit re-pays another access
                    continue
                self.dropped += 1
                self.clock = t
                self._finish_op()
                continue
            self.accesses += 1
            self.latency_ps += paid
            self.completed += 1
            self._record_completion(t)
            self.clock = t
            self._finish_op()

    def _finish_op(self) -> None:
        self.i += 1
        self.op_t = None

    def _record_completion(self, t: int) -> None:
        for j, recovery in enumerate(self.fault.recovery_times):
            if t >= recovery and (self.min_after[j] < 0 or t < self.min_after[j]):
                self.min_after[j] = t


# ---------------------------------------------------------------------
# Replicated global directory
# ---------------------------------------------------------------------
class _Directory:
    """One worker's replica of the global agent's line directory.

    Every worker applies the *same* merged request stream, so all
    replicas evolve identically; lanes hosted by this worker get their
    replica mirrors invalidated as grants land (the sibling invalidation
    of :meth:`HierarchicalDomain.access`).
    """

    __slots__ = ("owner", "sharers", "requests", "invalidations")

    def __init__(self) -> None:
        self.owner: Dict[int, int] = {}
        self.sharers: Dict[int, set] = {}
        self.requests = 0
        self.invalidations = 0

    def apply(
        self,
        merged: List[Tuple[int, int, int, int, int]],
        lanes_by_idx: Dict[int, _Lane],
    ) -> None:
        owner_map = self.owner
        sharers_map = self.sharers
        for _t, h, _seq, line, excl in merged:
            self.requests += 1
            owner = owner_map.get(line)
            sharers = sharers_map.get(line)
            if sharers is None:
                sharers = sharers_map[line] = set()
            invalidate: set = set()
            if excl:
                if owner is not None and owner != h:
                    invalidate.add(owner)
                for s in sharers:
                    if s != h:
                        invalidate.add(s)
                owner_map[line] = h
                sharers.clear()
            else:
                if owner is not None and owner != h:
                    invalidate.add(owner)
                    sharers.add(owner)
                    owner_map[line] = None
                sharers.add(h)
            if invalidate:
                self.invalidations += len(invalidate)
                for victim in invalidate:
                    lane = lanes_by_idx.get(victim)
                    if lane is not None:
                        lane.replicas.pop(line, None)


# ---------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------
@dataclass
class LaneResult:
    """Per-host outcome of a windowed run (serial and parallel alike)."""

    host: str
    accesses: int = 0
    latency_ps: int = 0
    local_hits: int = 0
    global_requests: int = 0
    remote_accesses: int = 0
    naks: int = 0
    clock_ps: int = 0
    attempted: int = 0
    completed: int = 0
    dropped: int = 0
    retries: int = 0
    corrupted: int = 0
    min_after: List[int] = field(default_factory=list)


@dataclass
class WindowedOutcome:
    """Outcome of one windowed supernode run."""

    lanes: List[LaneResult]
    window_ps: int
    windows: int
    workers: int
    end_ps: int


def _lane_result(lane: _Lane) -> LaneResult:
    return LaneResult(
        host=lane.host,
        accesses=lane.accesses,
        latency_ps=lane.latency_ps,
        local_hits=lane.local_hits,
        global_requests=lane.global_requests,
        remote_accesses=lane.remote_accesses,
        naks=lane.naks,
        clock_ps=lane.clock,
        attempted=lane.attempted,
        completed=lane.completed,
        dropped=lane.dropped,
        retries=lane.retries,
        corrupted=lane.corrupted,
        min_after=list(lane.min_after),
    )


def _next_window_start(nexts: Sequence[int], window_ps: int) -> int:
    """First window boundary at or before the earliest pending event.

    Lanes report their next event time (or ``-1`` when drained); all
    workers compute the same skip, so empty windows cost nothing and
    the run terminates when every lane is drained (returns ``-1``).
    """
    alive = [t for t in nexts if t >= 0]
    if not alive:
        return -1
    return (min(alive) // window_ps) * window_ps


def _run_serial(lanes: List[_Lane], window_ps: int) -> Tuple[List[LaneResult], int]:
    """The windowed model executed in-process — the parity baseline.

    Identical lane/window/merge code to the parallel runner; the only
    difference is that one loop owns every lane and no IPC happens.
    """
    directory = _Directory()
    lanes_by_idx = {lane.idx: lane for lane in lanes}
    window_start = 0
    windows = 0
    while True:
        windows += 1
        window_end = window_start + window_ps
        merged: List[Tuple[int, int, int, int, int]] = []
        nexts = [lane.run_window(window_end, merged) for lane in lanes]
        merged.sort()
        directory.apply(merged, lanes_by_idx)
        window_start = _next_window_start(nexts, window_ps)
        if window_start < 0:
            break
    return [_lane_result(lane) for lane in lanes], windows


# Shared-outbox layout: [next_t, count, (t, seq, line, excl) * capacity].
_OUTBOX_HEADER = 2
_REQ_INTS = 4
# Fixed per-lane result slots followed by the min-after-recovery times.
_RESULT_FIELDS = (
    "accesses", "latency_ps", "local_hits", "global_requests",
    "remote_accesses", "naks", "clock_ps", "attempted", "completed",
    "dropped", "retries", "corrupted",
)


def _worker_entry(
    worker_idx: int,
    workers: int,
    lanes: List[_Lane],
    window_ps: int,
    outboxes,
    results,
    barrier,
    windows_out,
) -> None:
    """One forked worker: drive ``lanes[worker_idx::workers]`` in lockstep.

    Every worker reads *all* outboxes and applies the full merged
    request stream to its own directory replica, so no coordinator
    process exists and the merge order is independent of scheduling.
    """
    my_lanes = lanes[worker_idx::workers]
    lanes_by_idx = {lane.idx: lane for lane in my_lanes}
    directory = _Directory()
    window_start = 0
    windows = 0
    while True:
        windows += 1
        window_end = window_start + window_ps
        for lane in my_lanes:
            out: List[Tuple[int, int, int, int, int]] = []
            nxt = lane.run_window(window_end, out)
            box = outboxes[lane.idx]
            capacity = (len(box) - _OUTBOX_HEADER) // _REQ_INTS
            if len(out) > capacity:
                raise ParallelSimError(
                    f"lane {lane.host}: {len(out)} requests in one window "
                    f"exceed the outbox capacity {capacity}"
                )
            box[0] = nxt
            box[1] = len(out)
            cursor = _OUTBOX_HEADER
            for t, _h, seq, line, excl in out:
                box[cursor] = t
                box[cursor + 1] = seq
                box[cursor + 2] = line
                box[cursor + 3] = excl
                cursor += _REQ_INTS
        barrier.wait()
        merged = []
        nexts = []
        for idx in range(len(lanes)):
            box = outboxes[idx]
            nexts.append(box[0])
            cursor = _OUTBOX_HEADER
            for _ in range(box[1]):
                merged.append(
                    (box[cursor], idx, box[cursor + 1],
                     box[cursor + 2], box[cursor + 3])
                )
                cursor += _REQ_INTS
        barrier.wait()  # readers done before anyone rewrites an outbox
        merged.sort()
        directory.apply(merged, lanes_by_idx)
        window_start = _next_window_start(nexts, window_ps)
        if window_start < 0:
            break
    if worker_idx == 0:
        windows_out.value = windows
    for lane in my_lanes:
        slot = results[lane.idx]
        for j, name in enumerate(_RESULT_FIELDS):
            slot[j] = getattr(lane, name if name != "clock_ps" else "clock")
        for j, value in enumerate(lane.min_after):
            slot[len(_RESULT_FIELDS) + j] = value


def _run_parallel(
    lanes: List[_Lane], window_ps: int, workers: int
) -> Tuple[List[LaneResult], int]:
    ctx = multiprocessing.get_context(_FORK_CONTEXT)
    # Every op advances a lane's clock by at least the issue gap, so one
    # window can hold at most width/gap ops — plus one op carried over a
    # boundary and slack for retransmit timing.
    if window_ps >= _NO_CROSSING_PS:
        capacity = max(len(lane.lines) for lane in lanes) + 1
    else:
        capacity = window_ps // WINDOW_ISSUE_GAP_PS + 8
    extra = max((len(lane.min_after) for lane in lanes), default=0)
    outboxes = [
        ctx.Array("q", _OUTBOX_HEADER + capacity * _REQ_INTS, lock=False)
        for _ in lanes
    ]
    results = [
        ctx.Array("q", len(_RESULT_FIELDS) + extra, lock=False)
        for _ in lanes
    ]
    windows_out = ctx.Value("q", 0, lock=False)
    barrier = ctx.Barrier(workers)
    processes = [
        ctx.Process(
            target=_worker_entry,
            args=(w, workers, lanes, window_ps, outboxes, results,
                  barrier, windows_out),
            daemon=True,
        )
        for w in range(workers)
    ]
    for proc in processes:
        proc.start()
    for proc in processes:
        proc.join()
    failed = [proc.exitcode for proc in processes if proc.exitcode]
    if failed:
        raise ParallelSimError(
            f"windowed workers exited with codes {failed} — see stderr "
            f"for the lane traceback"
        )
    outcomes: List[LaneResult] = []
    for lane in lanes:
        slot = results[lane.idx]
        values = {name: slot[j] for j, name in enumerate(_RESULT_FIELDS)}
        outcomes.append(
            LaneResult(
                host=lane.host,
                min_after=[
                    slot[len(_RESULT_FIELDS) + j]
                    for j in range(len(lane.min_after))
                ],
                **values,
            )
        )
    return outcomes, int(windows_out.value)


def run_windowed_supernode(
    supernode,
    fabric_name: str,
    per_host_ops: Dict[str, Tuple[Sequence[int], Sequence[int], Sequence[int]]],
    jobs: int = 1,
    controller=None,
) -> WindowedOutcome:
    """Run one windowed supernode simulation; serial and parallel agree.

    ``per_host_ops`` maps each host (sorted order = lane index order) to
    its ``(lines, excl, delays)`` arrays — already rebased to system
    addresses and line-aligned.  ``jobs=1`` runs every lane in-process;
    ``jobs>=2`` forks ``min(jobs, hosts)`` workers.  When the platform
    has no fork start method the runner silently degrades to serial —
    the results are bit-identical either way.
    """
    hosts = sorted(supernode.hosts)
    window_ps = min(min_crossing_ps(supernode), _NO_CROSSING_PS)
    latency_table = remote_latency_table(supernode)
    recovery_times: Tuple[int, ...] = ()
    if controller is not None:
        recovery_times = tuple(sorted({
            e.recovers_at_ps
            for e in controller.matched
            if e.recovers_at_ps is not None
        }))
    lanes: List[_Lane] = []
    for idx, host in enumerate(hosts):
        lines, excl, delays = per_host_ops[host]
        fault = None
        if controller is not None:
            fault = _FaultContext(
                controller=controller,
                fabric_name=fabric_name,
                link_key=tuple(sorted((host, fabric_name))),
                recovery_times=recovery_times,
            )
        lanes.append(
            _Lane(idx, host, lines, excl, delays, latency_table[host], fault)
        )
    workers = max(1, min(int(jobs), len(lanes)))
    if workers > 1 and _FORK_CONTEXT not in multiprocessing.get_all_start_methods():
        workers = 1
    if controller is not None and not controller.degraded:
        # Strict mode fails loud with typed exceptions
        # (HostDownError/FaultActiveError); those must propagate to the
        # caller, not die inside a forked worker — and the results are
        # bit-identical either way.
        workers = 1
    if workers == 1:
        results, windows = _run_serial(lanes, window_ps)
    else:
        results, windows = _run_parallel(lanes, window_ps, workers)
    end_ps = max((r.clock_ps for r in results), default=0)
    return WindowedOutcome(
        lanes=results,
        window_ps=window_ps,
        windows=windows,
        workers=workers,
        end_ps=end_ps,
    )
