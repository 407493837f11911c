"""Durable on-disk work queue for distributed sweep execution.

The scheduler (:func:`repro.experiments.runner.run_sweep` with the
``queue`` backend) persists every pending spec payload under the run
directory; worker processes — local children or ``repro worker``
processes on any host sharing the filesystem — *lease* specs one at a
time, heartbeat while executing, and mark them done with the persisted
record.  Crashed workers stop heartbeating, their leases go stale, and
the specs requeue; ``"error"`` specs retry with exponential backoff up
to a bounded attempt budget before the failure is persisted for real.

Layout inside ``<run-dir>/queue/``::

    meta.json        scheduler-written config (sweep name, git
                     metadata, retry/lease budgets)
    tasks/<hash>.json    one pending spec payload (+ attempt count,
                         earliest-retry timestamp)
    leases/<hash>.json   live claim; mtime is the worker heartbeat
    done/<hash>.json     completed spec's full stored record

All transitions are single-file creates/renames/unlinks, so any number
of workers can cooperate without a coordinator process.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

QUEUE_DIR = "queue"


class QueueError(RuntimeError):
    """The work queue is missing, torn down, or malformed."""


@dataclass
class QueueConfig:
    """Scheduler-chosen execution budgets shared with every worker."""

    sweep: str
    git: Dict[str, object] = field(default_factory=dict)
    #: Total execution attempts per spec (1 = no retries).
    max_attempts: int = 3
    #: First-retry delay; doubles per subsequent attempt.
    backoff_s: float = 0.5
    #: A lease with no heartbeat for this long is considered abandoned.
    lease_timeout_s: float = 30.0


@dataclass
class ClaimedTask:
    """One leased spec: payload plus its retry history."""

    spec_hash: str
    payload: Dict[str, object]
    attempts: int = 0


class WorkQueue:
    """File-backed queue of spec payloads under one run directory."""

    def __init__(self, run_dir: Union[str, Path]):
        self.run_dir = Path(run_dir)
        self.root = self.run_dir / QUEUE_DIR

    @property
    def meta_path(self) -> Path:
        return self.root / "meta.json"

    @property
    def tasks_dir(self) -> Path:
        return self.root / "tasks"

    @property
    def leases_dir(self) -> Path:
        return self.root / "leases"

    @property
    def done_dir(self) -> Path:
        return self.root / "done"

    def exists(self) -> bool:
        return self.meta_path.is_file()

    # ------------------------- scheduler side -------------------------
    def create(
        self, payloads: List[Dict[str, object]], config: QueueConfig
    ) -> None:
        """(Re)populate the queue with ``payloads``.

        Any leftover state from an interrupted run is wiped first:
        completed specs live on in the result store (and are therefore
        not in ``payloads``), so stale tasks/leases/done markers carry
        no information the store does not already hold.
        """
        self.destroy()
        for sub in (self.tasks_dir, self.leases_dir, self.done_dir):
            sub.mkdir(parents=True, exist_ok=True)
        for payload in payloads:
            task = {"payload": payload, "attempts": 0, "not_before": 0.0}
            self._write_atomic(
                self.tasks_dir / f"{payload['spec_hash']}.json", task
            )
        # meta.json lands last: workers treat its presence as "queue
        # open for business", so they never observe a half-built queue.
        self._write_atomic(self.meta_path, asdict(config))

    def destroy(self) -> None:
        if self.root.is_dir():
            shutil.rmtree(self.root, ignore_errors=True)

    def requeue_stale(self, lease_timeout_s: float) -> List[str]:
        """Drop leases whose heartbeat stopped; their specs become
        claimable again.  Returns the requeued spec hashes."""
        requeued = []
        now = time.time()
        for lease in self._listdir(self.leases_dir):
            try:
                age = now - lease.stat().st_mtime
            except OSError:
                continue
            if age <= lease_timeout_s:
                continue
            if not (self.tasks_dir / lease.name).is_file():
                continue  # completed concurrently; lease is vestigial
            try:
                lease.unlink()
            except OSError:
                continue
            requeued.append(lease.stem)
        return requeued

    def done_records(self) -> Iterator[Tuple[str, Dict[str, object]]]:
        """Yield ``(spec_hash, stored-record dict)`` per done marker."""
        for path in self._listdir(self.done_dir):
            record = self._read_json(path)
            if record is not None:
                yield path.stem, record

    # --------------------------- worker side --------------------------
    def load_config(self) -> QueueConfig:
        data = self._read_json(self.meta_path)
        if data is None:
            raise QueueError(f"no work queue under {self.run_dir}")
        return QueueConfig(**data)

    def claim(
        self, owner: str, lease_timeout_s: float
    ) -> Optional[ClaimedTask]:
        """Lease one claimable spec, or None when nothing is claimable.

        A spec is claimable when its task file exists, its retry
        backoff has elapsed, and no live lease covers it.  The lease
        file is created with ``O_EXCL``, so concurrent workers racing
        for one spec resolve to exactly one winner, and the task file
        is checked again once the lease is held, so a spec completed
        since it was read is never run twice.
        """
        now = time.time()
        for task_path in self._listdir(self.tasks_dir):
            task = self._read_json(task_path)
            if task is None:  # completed/rewritten under our feet
                continue
            if float(task.get("not_before", 0.0)) > now:
                continue
            spec_hash = task_path.stem
            lease_path = self.leases_dir / f"{spec_hash}.json"
            if lease_path.is_file():
                try:
                    age = now - lease_path.stat().st_mtime
                except OSError:
                    age = 0.0
                if age <= lease_timeout_s:
                    continue
                try:  # stale: evict the dead worker's lease
                    lease_path.unlink()
                except OSError:
                    pass
            try:
                fd = os.open(
                    lease_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL
                )
            except FileExistsError:
                continue  # another worker won the race
            except FileNotFoundError:
                return None  # queue torn down mid-scan
            with os.fdopen(fd, "w") as fh:
                fh.write(json.dumps({"owner": owner, "acquired": now}))
            if not task_path.is_file():
                # Completed since we read it: complete() unlinks the
                # task before it releases the lease, so drop ours.
                lease_path.unlink(missing_ok=True)
                continue
            return ClaimedTask(
                spec_hash=spec_hash,
                payload=dict(task["payload"]),
                attempts=int(task.get("attempts", 0)),
            )
        return None

    def heartbeat(self, task: ClaimedTask) -> None:
        try:
            os.utime(self.leases_dir / f"{task.spec_hash}.json")
        except OSError:
            pass

    def retry(self, task: ClaimedTask, backoff_s: float) -> float:
        """Requeue a failed attempt with exponential backoff.

        Returns the delay before the spec becomes claimable again.
        """
        delay = backoff_s * (2 ** task.attempts)
        self._write_atomic(
            self.tasks_dir / f"{task.spec_hash}.json",
            {
                "payload": task.payload,
                "attempts": task.attempts + 1,
                "not_before": time.time() + delay,
            },
        )
        self._release(task)
        return delay

    def complete(self, task: ClaimedTask, record: Dict[str, object]) -> None:
        """Mark a spec done (record already persisted to the store)."""
        self._write_atomic(self.done_dir / f"{task.spec_hash}.json", record)
        try:
            (self.tasks_dir / f"{task.spec_hash}.json").unlink()
        except OSError:
            pass
        self._release(task)

    def drained(self) -> bool:
        """True once no task files remain (all specs completed)."""
        return not any(self._listdir(self.tasks_dir))

    # ----------------------------- helpers ----------------------------
    def _release(self, task: ClaimedTask) -> None:
        try:
            (self.leases_dir / f"{task.spec_hash}.json").unlink()
        except OSError:
            pass

    @staticmethod
    def _listdir(directory: Path) -> List[Path]:
        try:
            return sorted(p for p in directory.iterdir() if p.suffix == ".json")
        except OSError:
            return []

    @staticmethod
    def _read_json(path: Path) -> Optional[Dict[str, object]]:
        try:
            return json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None

    @staticmethod
    def _write_atomic(path: Path, data: Dict[str, object]) -> None:
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(data))
        os.replace(tmp, path)
