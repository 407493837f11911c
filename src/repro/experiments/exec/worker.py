"""Sweep worker: lease specs from a run directory's queue and execute.

``run_worker`` is the loop behind both the local worker processes the
``queue`` backend spawns and the ``repro worker <run-dir>`` CLI (which
can join from any host sharing the run directory's filesystem).  Each
iteration leases one spec, heartbeats the lease while the experiment
runs, then either buffers the finished record for a batched append
into the sharded :class:`~repro.experiments.store.ResultStore` or
requeues the spec with backoff when the attempt failed and budget
remains.

Finished records drain in batches (:data:`FLUSH_BATCH` records, or
whenever the queue goes idle) through
:meth:`~repro.experiments.store.ResultStore.append_many` — one shard
lock acquire and one buffered write per drained batch instead of one
per record.  Buffered tasks stay leased (the heartbeat thread bumps
them alongside the running spec) and are only marked complete *after*
their records are durable, so a crash mid-buffer re-runs specs rather
than losing results.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Union

from repro.experiments.exec.queue import ClaimedTask, QueueConfig, WorkQueue
from repro.experiments.spec import ExperimentSpec
from repro.experiments.store import ResultStore, StoredResult

Progress = Optional[Callable[[str], None]]

#: Finished records buffered before a batched store append.  Small
#: enough that a crash re-runs at most a handful of specs, large enough
#: to amortise the shard lock round-trip.
FLUSH_BATCH = 8


@dataclass
class WorkerOutcome:
    """What one worker loop did before the queue drained."""

    worker_id: str
    executed: List[StoredResult] = field(default_factory=list)
    retried: int = 0

    @property
    def failed(self) -> List[StoredResult]:
        return [r for r in self.executed if not r.ok]


def default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


def _payload_label(payload) -> str:
    return ExperimentSpec(
        experiment=str(payload["experiment"]),
        params=dict(payload["params"]),
        repeat=int(payload["repeat"]),
        seed=int(payload["seed"]),
    ).label


class _Heartbeat:
    """Background thread bumping lease mtimes while a spec runs.

    ``tasks`` is a callable returning every task whose lease must stay
    live — the spec being executed plus any completed-but-unflushed
    tasks buffered for a batched append.  Without the buffered tasks a
    lease could expire mid-buffer and another worker would re-claim
    (and re-run) an already-finished spec.

    ``on_beat`` (if given) is invoked with the live lease count after
    each round — the telemetry ``heartbeat`` hook.  It runs on this
    thread, so it must be thread-safe (the telemetry writer is).
    """

    def __init__(
        self,
        queue: WorkQueue,
        tasks: Callable[[], List[ClaimedTask]],
        interval_s: float,
        on_beat: Optional[Callable[[int], None]] = None,
    ):
        self._queue = queue
        self._tasks = tasks
        self._interval_s = max(interval_s, 0.01)
        self._on_beat = on_beat
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self._interval_s):
            tasks = self._tasks()
            for task in tasks:
                self._queue.heartbeat(task)
            if self._on_beat is not None:
                self._on_beat(len(tasks))

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def run_worker(
    run_dir: Union[str, Path],
    worker_id: Optional[str] = None,
    poll_s: float = 0.2,
    wait_s: float = 0.0,
    max_specs: Optional[int] = None,
    progress: Progress = None,
) -> WorkerOutcome:
    """Drain specs from ``run_dir``'s queue until it is empty.

    ``wait_s`` tolerates starting before the scheduler has populated
    the queue (the external-worker pattern); ``max_specs`` bounds how
    many specs this worker executes before handing back.  Raises
    :class:`~repro.experiments.exec.queue.QueueError` when no queue
    appears within the wait budget.
    """
    queue = WorkQueue(run_dir)
    deadline = time.monotonic() + wait_s
    while not queue.exists():
        if time.monotonic() >= deadline:
            queue.load_config()  # raises QueueError with the run dir
        time.sleep(min(poll_s, 0.1))
    config = queue.load_config()
    store = ResultStore(run_dir)
    outcome = WorkerOutcome(worker_id=worker_id or default_worker_id())

    # Telemetry is run-scoped: the scheduler creates <run-dir>/telemetry/
    # when it is on, and attach() returns None when it is absent, so an
    # externally launched worker needs no flag of its own.
    from repro.obs.telemetry import TelemetryWriter

    emitter = TelemetryWriter.attach(Path(run_dir), outcome.worker_id)
    worker_start = time.perf_counter()

    def emit(kind: str, **fields: object) -> None:
        if emitter is not None:
            emitter.emit(kind, worker=outcome.worker_id, **fields)

    emit("worker_started")

    def note(line: str) -> None:
        if progress is not None:
            progress(line)

    # Import here, not at module top: worker processes fork before any
    # experiment has run, so the registry import cost lands once.
    from repro.experiments.runner import _execute_spec

    # Completed-but-unflushed (task, record) pairs awaiting a batched
    # append.  Records become durable (and tasks complete) only at
    # flush time; until then their leases stay heartbeaten.
    pending: List[tuple] = []

    def flush() -> None:
        if not pending:
            return
        store.append_many([record for _, record in pending])
        for task, record in pending:
            queue.complete(task, asdict(record))
            outcome.executed.append(record)
        pending.clear()

    current: List[ClaimedTask] = []

    def leased_tasks() -> List[ClaimedTask]:
        return current + [task for task, _ in pending]

    while (
        max_specs is None
        or len(outcome.executed) + len(pending) < max_specs
    ):
        task = queue.claim(outcome.worker_id, config.lease_timeout_s)
        if task is None:
            flush()  # idle: make the backlog durable before waiting
            if queue.drained():
                break  # every spec is completed (or queue torn down)
            time.sleep(poll_s)  # all remaining specs leased/backing off
            continue
        label = _payload_label(task.payload)
        emit("task_claimed", task_id=task.spec_hash, label=label)
        current.append(task)
        try:
            with _Heartbeat(
                queue,
                leased_tasks,
                config.lease_timeout_s / 3,
                on_beat=lambda leased: emit("heartbeat", leased=leased),
            ):
                raw = _execute_spec(task.payload)
        finally:
            current.clear()
        if raw["status"] == "error" and task.attempts + 1 < config.max_attempts:
            delay = queue.retry(task, config.backoff_s)
            outcome.retried += 1
            emit(
                "task_retried",
                task_id=task.spec_hash,
                attempt=task.attempts + 1,
                error=str(raw.get("error", ""))[:500],
            )
            note(
                f"retry   {label} "
                f"(attempt {task.attempts + 1}/{config.max_attempts}, "
                f"backoff {delay:.1f}s)"
            )
            continue
        record = StoredResult(
            timestamp=time.time(), sweep=config.sweep,
            worker=outcome.worker_id, **config.git, **raw
        )
        pending.append((task, record))
        emit(
            "task_finished",
            task_id=task.spec_hash,
            status=record.status,
            wall_s=record.wall_time_s,
            label=label,
        )
        if len(pending) >= FLUSH_BATCH:
            flush()
        state = "ok     " if record.ok else "FAILED "
        note(f"{state} {label} ({record.wall_time_s:.2f}s)")
    flush()
    emit(
        "worker_finished",
        completed=len(outcome.executed),
        wall_s=time.perf_counter() - worker_start,
    )
    return outcome
