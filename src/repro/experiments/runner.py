"""Sweep scheduler: expand, cache-check, run serially or on worker processes.

:func:`run_sweep` expands the :class:`~repro.experiments.spec.SweepSpec`,
collapses duplicates, and consults the run directory's sharded
:class:`ResultStore` for specs whose content hash already has a
successful record (the cache).  If any spec is pending, it takes the
run-level writer lock and runs them — in process (``serial``) or on
forked worker processes that claim specs from one shared counter
(``pool``, the default).  Each record is persisted as it lands, so an
interrupted sweep resumes without re-executing completed specs, and
failures stay isolated per spec.  A worker that dies fails the sweep
with its exit code once every other record has landed; a re-run
executes only the specs it lost.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import time
import traceback
from contextlib import closing, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Union

from repro.experiments.spec import ExperimentSpec, SpecError, SweepSpec
from repro.experiments.store import ResultStore, StoredResult, git_metadata

#: The ``backend`` names :func:`run_sweep` accepts.
BACKENDS = ("pool", "serial")


class SweepWorkerError(RuntimeError):
    """A pool worker exited without returning every spec it claimed."""


@dataclass
class SweepOutcome:
    """Summary of one :func:`run_sweep` invocation."""

    sweep: str
    out_dir: Path
    executed: List[StoredResult] = field(default_factory=list)
    cached: int = 0
    backend: str = "pool"

    @property
    def failed(self) -> List[StoredResult]:
        return [r for r in self.executed if not r.ok]

    @property
    def total(self) -> int:
        return len(self.executed) + self.cached

    @property
    def ok(self) -> bool:
        return not self.failed


def _execute_spec(payload: Dict[str, object]) -> Dict[str, object]:
    """Run one spec, never raise.

    Returns a partial :class:`StoredResult` dict; the scheduler adds
    timestamps and git metadata before persisting.

    The global ``random`` module is seeded from the spec for any
    experiment that consumes ambient randomness; note the current
    registry entries are internally deterministic (instance-seeded
    RNGs), so repeats of the same params reproduce identical series.
    """
    from repro.harness.experiments import clear_shared_results, run_experiment

    rng_state = random.getstate()
    random.seed(payload["seed"])
    # Persisted wall times must not depend on which specs shared a
    # worker process: drop results shared across specs before timing.
    clear_shared_results()
    start = time.perf_counter()
    record = {
        "spec_hash": payload["spec_hash"],
        "experiment": payload["experiment"],
        "params": payload["params"],
        "repeat": payload["repeat"],
        "seed": payload["seed"],
    }
    # --profile rides the payload (not the spec hash: profiling never
    # changes what a spec computes, so cached records stay valid).
    profiler = None
    if payload.get("profile"):
        from repro.obs.profiler import SimProfiler
        from repro.sim import engine as _engine

        # Install directly rather than via the profile() context
        # manager: a worker process is single-spec-at-a-time, and a
        # leftover profiler from a crashed spec must not wedge the
        # next one, so install unconditionally.
        profiler = SimProfiler()
        _engine.set_profiler(profiler)
    try:
        result = run_experiment(payload["experiment"], **payload["params"])
    except Exception:
        record.update(
            status="error",
            error=traceback.format_exc(limit=8),
            series={},
            text="",
        )
    else:
        record.update(
            status="ok", error=None, series=result.series, text=result.text
        )
    finally:
        if profiler is not None:
            from repro.sim import engine as _engine

            _engine.set_profiler(None)
            record["profile"] = profiler.to_dict()
        # The serial path runs in the caller's process: leave its
        # global RNG stream the way we found it.
        random.setstate(rng_state)
    record["wall_time_s"] = time.perf_counter() - start
    return record


def default_jobs() -> int:
    """Worker count when ``--jobs`` is not given.

    ``REPRO_JOBS`` overrides (uncapped, like an explicit ``--jobs``);
    otherwise the CPU count, soft-capped at 8 so a sweep on a large
    shared box does not monopolise it by default.
    """
    env = os.environ.get("REPRO_JOBS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(
                f"REPRO_JOBS must be an integer, got {env!r}"
            ) from None
    return max(1, min(8, os.cpu_count() or 1))


def _pool_context():
    """Prefer fork (shares the warmed interpreter); fall back to spawn."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context("spawn")


def _worker(payloads: List[Dict[str, object]], claimed, conn) -> None:
    """Pool process: claim payload indexes until none is left.

    ``claimed`` is the counter every worker shares, so each index is
    claimed exactly once.  Each record is sent down ``conn``, this
    worker's own pipe, before the next claim; returning closes it, which
    the scheduler reads as EOF.  Top-level, so the spawn fallback can
    import it.
    """
    with conn:
        while True:
            with claimed.get_lock():
                index = claimed.value
                claimed.value = index + 1
            if index >= len(payloads):
                return
            conn.send(_execute_spec(payloads[index]))


def _executed(
    payloads: List[Dict[str, object]], backend: str, jobs: int
) -> Iterator[Dict[str, object]]:
    """Run ``payloads``, yielding each spec's raw record as it finishes.

    In the calling process when ``backend`` is ``serial``, with one job
    or for one payload.  Otherwise on up to ``jobs`` :func:`_worker`
    processes, which inherit ``payloads`` (no task is pickled), claim
    indexes from one shared counter, and send each record down their
    own pipe.  Records are yielded in completion order, so a slow
    head-of-line spec does not delay persisting specs that finished
    behind it.  The scheduler starts no thread: it waits on the pipes
    and reads each to EOF before joining its worker.

    A worker that exits non-zero (say, killed mid-spec) loses the spec
    it was running, and the others claim the rest.  Once every record
    that arrived is yielded, a :class:`SweepWorkerError` names the exit
    codes.
    """
    if backend == "serial" or jobs <= 1 or len(payloads) <= 1:
        yield from map(_execute_spec, payloads)
        return
    from multiprocessing.connection import wait

    ctx = _pool_context()
    claimed = ctx.Value("i", 0)
    workers, live = [], []
    try:
        for _ in range(min(jobs, len(payloads))):
            reader, writer = ctx.Pipe(duplex=False)
            live.append(reader)
            worker = ctx.Process(
                target=_worker, args=(payloads, claimed, writer), daemon=True
            )
            worker.start()
            workers.append(worker)
            # The worker holds the only write end, so its exit is our EOF.
            writer.close()
        received = 0
        while live:
            for reader in wait(live):
                try:
                    record = reader.recv()
                except EOFError:
                    live.remove(reader)
                    reader.close()
                    continue
                received += 1
                yield record
        for worker in workers:
            worker.join()
        codes = [worker.exitcode for worker in workers]
        if received < len(payloads) or any(codes):
            raise SweepWorkerError(
                f"sweep worker exit codes {codes}: "
                f"{len(payloads) - received} of {len(payloads)} specs "
                f"returned no record"
            )
    finally:
        # Abort outstanding specs on any error, Ctrl-C or close(),
        # instead of draining a long sweep first.  A no-op for a worker
        # already joined.
        for worker in workers:
            worker.terminate()
        for worker in workers:
            worker.join()
        for reader in live:
            reader.close()


def run_sweep(
    sweep: SweepSpec,
    out_dir: Union[str, Path],
    jobs: Optional[int] = None,
    force: bool = False,
    progress: Optional[Callable[[str], None]] = None,
    backend: Optional[str] = None,
    repeats: Optional[int] = None,
    telemetry: bool = True,
    profile: bool = False,
) -> SweepOutcome:
    """Expand ``sweep``, run its uncached specs, persist each record.

    ``force`` re-runs specs even when the store already holds a
    successful record for their hash.  ``progress`` (if given) receives
    one human-readable line per spec as results land.  ``backend`` is
    ``"pool"`` (the default, also for ``None``) or ``"serial"``.  An
    explicit ``jobs`` sizes the pool uncapped and must be >= 1.
    ``repeats`` (if given) overrides the sweep's own repeat count — the
    ``--repeats N`` CLI path — and must be >= 1.

    ``telemetry`` (default on) makes the scheduler emit schema-validated
    lifecycle events into ``<run-dir>/telemetry/`` (see
    :mod:`repro.obs.telemetry`).  Telemetry observes scheduling only;
    experiment results are unaffected.  ``profile`` runs every spec
    under the simulator profiler and persists the per-component
    attribution on its record (``--profile``).
    """
    backend = backend or "pool"
    if backend not in BACKENDS:
        raise SpecError(
            f"unknown sweep backend {backend!r}; options: {', '.join(BACKENDS)}"
        )
    if jobs is None:
        jobs = default_jobs()
    elif jobs < 1:
        raise SpecError(f"jobs must be >= 1, got {jobs}")
    if repeats is not None:
        if repeats < 1:
            raise SpecError(f"repeats must be >= 1, got {repeats}")
        sweep.repeats = repeats
    sweep.validate()
    specs = sweep.expand()
    store = ResultStore(out_dir)
    prior = store.load_sweep_name()
    if prior is not None and prior != sweep.name:
        raise SpecError(
            f"run directory {store.root} already holds sweep {prior!r}; "
            f"refusing to mix in {sweep.name!r} — use a different --out"
        )
    outcome = SweepOutcome(
        sweep=sweep.name, out_dir=Path(out_dir), backend=backend
    )

    # Identical specs (e.g. a duplicated grid value) collapse to one
    # before any accounting, so cached/executed totals agree across
    # repeat invocations of the same sweep.  Each spec is hashed once,
    # here: everything below is keyed on these hashes.
    unique: Dict[str, ExperimentSpec] = {}
    for spec in specs:
        unique.setdefault(spec.spec_hash, spec)

    cached_hashes = set() if force else store.ok_hashes()
    pending = {h: s for h, s in unique.items() if h not in cached_hashes}
    cached_specs = [(h, s) for h, s in unique.items() if h in cached_hashes]
    outcome.cached = len(cached_specs)
    payloads = [
        {
            "spec_hash": h,
            "experiment": s.experiment,
            "params": dict(s.params),
            "repeat": s.repeat,
            "seed": s.seed,
        }
        for h, s in pending.items()
    ]
    if profile:
        for payload in payloads:
            payload["profile"] = True

    # One scheduler per run directory: advisory, heartbeated on every
    # persisted record, stale-taken-over if a prior scheduler crashed.
    # Taken before the first write, so a refused sweep leaves the live
    # run untouched; a fully cached sweep writes no record and takes none.
    with (store.writer_lock() if payloads else nullcontext()) as lock:
        store.save_sweep(sweep.to_dict())
        emitter = None
        if telemetry:
            from repro.obs.telemetry import TelemetryWriter

            emitter = TelemetryWriter(Path(out_dir), "scheduler")
        run_start = time.perf_counter()
        if emitter is not None:
            emitter.emit(
                "run_started",
                sweep=sweep.name,
                total=len(unique),
                cached=outcome.cached,
                backend=backend,
                jobs=jobs,
            )
        for spec_hash, spec in cached_specs:
            if emitter is not None:
                emitter.emit("spec_cached", spec_hash=spec_hash)
            if progress:
                progress(f"cached  {spec.label} ({spec_hash})")
        try:
            if payloads:
                git = git_metadata(repo_dir=None)
                # Each record is persisted as it lands (not after the run
                # drains), so an interrupted sweep keeps every completed
                # spec in the cache.
                with closing(_executed(payloads, backend, jobs)) as results:
                    for raw in results:
                        record = StoredResult(
                            timestamp=time.time(), sweep=sweep.name, **git, **raw
                        )
                        store.append(record)
                        outcome.executed.append(record)
                        lock.refresh()
                        label = pending[record.spec_hash].label
                        if emitter is not None:
                            emitter.emit(
                                "record",
                                spec_hash=record.spec_hash,
                                status=record.status,
                                wall_s=record.wall_time_s,
                                label=label,
                            )
                        if progress:
                            state = "ok     " if record.ok else "FAILED "
                            progress(f"{state} {label} ({record.wall_time_s:.2f}s)")
        finally:
            # Also when a worker died: ``executed`` below the start
            # event's ``total`` then shows the specs the run lost.
            if emitter is not None:
                emitter.emit(
                    "run_finished",
                    sweep=sweep.name,
                    executed=len(outcome.executed),
                    failed=len(outcome.failed),
                    wall_s=time.perf_counter() - run_start,
                )
    return outcome
