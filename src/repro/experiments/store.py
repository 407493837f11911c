"""Sharded JSONL persistence for experiment results.

Each sweep run owns a directory.  Records append to size-capped JSONL
shards — ``results-00000.jsonl``, ``results-00001.jsonl``, ... — each
with a tiny sibling index (``.idx``: one ``spec_hash status`` line per
record) so cache lookups never parse full records.  ``sweep.json``
holds the expanded sweep spec.  The legacy single-file layout
(``results.jsonl``) remains readable: it sorts before every shard, and
new appends roll into shards.

Records are append-only; when a spec is re-run (``--force``) the newest
record wins on load.  Aggregation is streaming: :meth:`ResultStore.iter_records`
yields shard by shard, and ``latest()``/``ok_hashes()`` fold that
stream (or the indexes alone), so a million-record run never
materialises every record at once.

A run directory has one writer: the sweep scheduler holding its
run-level ``store.lock`` (one sweep per directory at a time, with
stale-lock takeover), so appends need no lock of their own.  That
writer's store finds the tail shard on its first append and then
tracks the tail's size itself, so an append lists no directory.
"""

from __future__ import annotations

import json
import subprocess
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Dict, Iterator, List, Optional, Set, Union

from repro.experiments.exec.locks import FileLock

RESULTS_FILE = "results.jsonl"          # legacy single-file layout
SWEEP_FILE = "sweep.json"
WRITE_LOCK_FILE = "store.lock"
SHARD_PREFIX = "results-"
SHARD_SUFFIX = ".jsonl"
INDEX_SUFFIX = ".idx"

#: Default shard roll-over threshold.  Small enough that aggregation
#: granularity stays fine-grained, large enough that a quick sweep
#: stays single-shard.
DEFAULT_SHARD_MAX_BYTES = 4 * 1024 * 1024

#: A run-level lock with no heartbeat for this long is stale.  The
#: scheduler refreshes it on every persisted record.
RUN_LOCK_STALE_S = 3600.0


class StoreCorruptionWarning(UserWarning):
    """Corrupt/truncated JSONL lines were skipped on load."""


@dataclass
class StoredResult:
    """One persisted experiment execution (ok or failed)."""

    spec_hash: str
    experiment: str
    params: Dict[str, object]
    repeat: int
    seed: int
    status: str                      # "ok" | "error"
    series: Dict[str, object] = field(default_factory=dict)
    text: str = ""
    error: Optional[str] = None
    wall_time_s: float = 0.0
    timestamp: float = 0.0
    sweep: str = ""
    git_commit: Optional[str] = None
    git_dirty: Optional[bool] = None
    worker: Optional[str] = None     # always None; old queue runs set it
    profile: Optional[Dict[str, object]] = None  # --profile attribution

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def group_key(self) -> str:
        """Spec identity modulo the seed axis — the repeat-group id.

        Repeat-aware sweeps vary only ``seed`` (and the repeat index)
        between re-executions of one scenario, so records sharing this
        key are statistical repeats of the same measurement; the
        analysis layer aggregates samples per key.  Canonical JSON so
        the key is stable across param insertion order.
        """
        params = {
            k: self.params[k] for k in sorted(self.params) if k != "seed"
        }
        return json.dumps(
            {"experiment": self.experiment, "params": params},
            sort_keys=True,
        )

    @property
    def group_label(self) -> str:
        """Human-readable form of :attr:`group_key`.

        ``experiment[k=v,...]`` with the seed axis elided, matching the
        spec-label format used in sweep progress lines.
        """
        params = ",".join(
            f"{k}={self.params[k]}" for k in sorted(self.params) if k != "seed"
        )
        return f"{self.experiment}[{params}]" if params else self.experiment


class LoadResult(List[StoredResult]):
    """``load()``'s list of records plus its corrupt-line count."""

    def __init__(self, records=(), skipped: int = 0):
        super().__init__(records)
        self.skipped = skipped


def git_metadata(repo_dir: Union[str, Path, None] = None) -> Dict[str, object]:
    """Current commit hash and dirty flag, or Nones outside a repo."""
    cwd = str(repo_dir) if repo_dir else None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, cwd=cwd, timeout=10,
        )
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            capture_output=True, text=True, cwd=cwd, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return {"git_commit": None, "git_dirty": None}
    if commit.returncode != 0:
        return {"git_commit": None, "git_dirty": None}
    return {
        "git_commit": commit.stdout.strip(),
        "git_dirty": bool(status.stdout.strip()),
    }


class ResultStore:
    """Append/stream/query interface over one run directory."""

    def __init__(
        self,
        root: Union[str, Path],
        shard_max_bytes: int = DEFAULT_SHARD_MAX_BYTES,
    ):
        self.root = Path(root)
        self.shard_max_bytes = shard_max_bytes
        # The tail shard's sequence number and size, once an append
        # has found it.
        self._tail_seq: Optional[int] = None
        self._tail_bytes = 0

    # ----------------------------- layout -----------------------------
    @property
    def results_path(self) -> Path:
        """The legacy single-file path (pre-shard stores)."""
        return self.root / RESULTS_FILE

    @property
    def sweep_path(self) -> Path:
        return self.root / SWEEP_FILE

    def shard_paths(self) -> List[Path]:
        """Every results file in append order: legacy first, then
        shards by sequence number."""
        paths = []
        if self.results_path.is_file():
            paths.append(self.results_path)
        try:
            shards = sorted(
                p for p in self.root.iterdir()
                if p.name.startswith(SHARD_PREFIX)
                and p.name.endswith(SHARD_SUFFIX)
            )
        except OSError:
            shards = []
        return paths + shards

    @staticmethod
    def index_path(shard: Path) -> Path:
        return shard.with_suffix(shard.suffix + INDEX_SUFFIX)

    def _shard_path(self, seq: int) -> Path:
        return self.root / f"{SHARD_PREFIX}{seq:05d}{SHARD_SUFFIX}"

    def _current_seq(self) -> int:
        seqs = []
        for path in self.shard_paths():
            if path.name == RESULTS_FILE:
                continue
            try:
                seqs.append(int(path.name[len(SHARD_PREFIX):-len(SHARD_SUFFIX)]))
            except ValueError:
                continue
        return max(seqs) if seqs else 0

    def exists(self) -> bool:
        return bool(self.shard_paths())

    # ---------------------------- sweep meta ---------------------------
    def save_sweep(self, sweep_dict: Dict[str, object]) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        self.sweep_path.write_text(json.dumps(sweep_dict, indent=2) + "\n")

    def load_sweep_name(self) -> Optional[str]:
        """Name recorded in ``sweep.json``, or None if absent/corrupt."""
        if not self.sweep_path.is_file():
            return None
        try:
            name = json.loads(self.sweep_path.read_text()).get("name")
        except (json.JSONDecodeError, OSError, AttributeError):
            return None
        return name if isinstance(name, str) else None

    # ----------------------------- locking -----------------------------
    def writer_lock(self, owner: Optional[str] = None) -> FileLock:
        """The run-level "one scheduler per run directory" lock.

        Advisory: a live holder blocks a second ``run_sweep`` on the
        same directory; a crashed holder's lock goes stale after
        :data:`RUN_LOCK_STALE_S` without heartbeats and is taken over.
        Its holder is the run directory's only writer.
        """
        return FileLock(
            self.root / WRITE_LOCK_FILE,
            owner=owner,
            stale_after_s=RUN_LOCK_STALE_S,
        )

    # ----------------------------- writing -----------------------------
    def append(self, record: StoredResult) -> Path:
        """Durably append one record, rolling shards at the size cap.

        The caller holds :meth:`writer_lock`, so no other process
        appends meanwhile.  The index line lands *after* the record: a
        crash between the two costs at worst one cache miss, never a
        phantom record.
        """
        # The field dict serializes as ``asdict`` would, without its
        # deep copy of the series.
        line = json.dumps(vars(record)) + "\n"
        if self._tail_seq is None:
            # First append: resume at the newest shard on disk.
            self.root.mkdir(parents=True, exist_ok=True)
            self._tail_seq = self._current_seq()
            tail = self._shard_path(self._tail_seq)
            self._tail_bytes = tail.stat().st_size if tail.is_file() else 0
        if self._tail_bytes >= self.shard_max_bytes:
            self._tail_seq += 1  # full: roll over
            self._tail_bytes = 0
        shard = self._shard_path(self._tail_seq)
        with shard.open("a") as fh:
            fh.write(line)
        # ``json.dumps`` escapes non-ASCII, so characters are bytes.
        self._tail_bytes += len(line)
        with self.index_path(shard).open("a") as fh:
            fh.write(f"{record.spec_hash} {record.status}\n")
        return shard

    def append_many(self, records: List[StoredResult]) -> List[Path]:
        """:meth:`append` each record in order; the shard of each."""
        return [self.append(record) for record in records]

    # ----------------------------- reading -----------------------------
    def _open_shard(self, path: Path) -> IO[str]:
        """Single seam for shard reads (tests instrument laziness here)."""
        return path.open()

    def _iter_shard(
        self, shard: Path, counts: Optional[Dict[str, int]] = None
    ) -> Iterator[StoredResult]:
        try:
            fh = self._open_shard(shard)
        except OSError:
            return
        with fh:
            for raw in fh:
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    yield StoredResult(**json.loads(raw))
                except (json.JSONDecodeError, TypeError):
                    if counts is not None:
                        counts["skipped"] += 1

    def _iter(self, counts: Optional[Dict[str, int]]) -> Iterator[StoredResult]:
        for shard in self.shard_paths():
            yield from self._iter_shard(shard, counts)

    def iter_records(self) -> Iterator[StoredResult]:
        """Stream every record in append order, shard by shard.

        Constant memory in the record count — the aggregation path for
        stores too large to :meth:`load` whole.  Corrupt lines are
        skipped silently here; use :meth:`load` when the skip count
        matters.
        """
        return self._iter(counts=None)

    def load(self) -> LoadResult:
        """Every record in append order, with corrupt lines counted.

        Returns a list (a :class:`LoadResult`) whose ``skipped``
        attribute says how many corrupt/truncated lines were dropped; a
        nonzero count also raises a :class:`StoreCorruptionWarning` so
        partial data loss is visible instead of silent.
        """
        counts = {"skipped": 0}
        records = list(self._iter(counts))
        if counts["skipped"]:
            warnings.warn(
                f"result store {self.root}: skipped {counts['skipped']} "
                f"corrupt JSONL line(s) — data from interrupted or "
                f"concurrent writes was lost",
                StoreCorruptionWarning,
                stacklevel=2,
            )
        return LoadResult(records, skipped=counts["skipped"])

    def latest(self) -> Dict[str, StoredResult]:
        """Newest record per spec hash (re-runs supersede old results).

        Folds the record stream incrementally: memory scales with the
        number of distinct specs, not the number of stored records.
        """
        newest: Dict[str, StoredResult] = {}
        for record in self.iter_records():
            newest[record.spec_hash] = record
        return newest

    def ok_hashes(self) -> Set[str]:
        """Spec hashes whose newest record succeeded — the skip cache.

        Served from the per-shard indexes (two tokens per record) when
        present; shards without an index (the legacy file, or an index
        lost to a crash) fall back to streaming their full records.  An
        index can trail its shard by the crash window's final record —
        that costs one spurious re-run, never a false cache hit.
        """
        newest: Dict[str, str] = {}
        for shard in self.shard_paths():
            index = self.index_path(shard)
            if index.is_file():
                try:
                    with index.open() as fh:
                        for raw in fh:
                            parts = raw.split()
                            if len(parts) == 2:
                                newest[parts[0]] = parts[1]
                    continue
                except OSError:
                    pass
            for record in self._iter_shard(shard):
                newest[record.spec_hash] = record.status
        return {h for h, status in newest.items() if status == "ok"}

    def query(
        self,
        experiment: Optional[str] = None,
        status: Optional[str] = None,
    ) -> Iterator[StoredResult]:
        """Newest-per-spec records filtered by experiment id and status."""
        for record in self.latest().values():
            if experiment is not None and record.experiment != experiment:
                continue
            if status is not None and record.status != status:
                continue
            yield record
