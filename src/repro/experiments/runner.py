"""Sweep scheduler: expand, cache-check, dispatch to an executor backend.

:func:`run_sweep` is a thin scheduler over
:mod:`repro.experiments.exec`: it expands the
:class:`~repro.experiments.spec.SweepSpec`, collapses duplicates,
consults the run directory's sharded :class:`ResultStore` for specs
whose content hash already has a successful record (the cache), takes
the run-level writer lock, and hands the pending payloads to the chosen
:class:`~repro.experiments.exec.backends.ExecutorBackend` — ``serial``,
``pool`` (the historical fork pool, the default), or ``queue`` (the
durable work queue that ``repro worker`` processes can join from any
host sharing the filesystem).  Every backend persists records as they
land, so an interrupted sweep resumes without re-executing completed
specs, and failures stay isolated per spec.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from repro.experiments.exec.backends import (
    ExecutionContext,
    ExecutorBackend,
    executor_by_name,
)
from repro.experiments.spec import ExperimentSpec, SpecError, SweepSpec
from repro.experiments.store import ResultStore, StoredResult, git_metadata


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
    """Worker entry point: run one spec, never raise.

    Top-level (picklable) so it works under both fork and spawn start
    methods.  Returns a partial :class:`StoredResult` dict; the caller
    (backend or queue worker) adds timestamps and git metadata before
    persisting.

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


def run_sweep(
    sweep: SweepSpec,
    out_dir: Union[str, Path],
    jobs: Optional[int] = None,
    force: bool = False,
    progress: Optional[Callable[[str], None]] = None,
    backend: Union[str, ExecutorBackend, None] = None,
    repeats: Optional[int] = None,
    telemetry: bool = True,
    profile: bool = False,
) -> SweepOutcome:
    """Expand ``sweep``, run uncached specs via ``backend``, persist.

    ``force`` re-runs specs even when the store already holds a
    successful record for their hash.  ``progress`` (if given) receives
    one human-readable line per spec as results land.  ``backend``
    names a registered executor (``serial``/``pool``/``queue``) or is a
    ready :class:`ExecutorBackend` instance; default ``pool``.  An
    explicit ``jobs`` is honoured uncapped (``0`` means "no local
    workers" and only makes sense with the ``queue`` backend, where
    external ``repro worker`` processes supply the labour).
    ``repeats`` (if given) overrides the sweep's own repeat count —
    the ``--repeats N`` CLI path — and must be >= 1.

    ``telemetry`` (default on) makes the scheduler emit schema-validated
    lifecycle events into ``<run-dir>/telemetry/`` — and, because the
    directory's presence is the enable switch, queue workers then emit
    their own (see :mod:`repro.obs.telemetry`).  Telemetry observes
    scheduling only; experiment results are unaffected.  ``profile``
    runs every spec under the simulator profiler and persists the
    per-component attribution on its record (``--profile``).
    """
    if repeats is not None:
        if repeats < 1:
            raise SpecError(f"repeats must be >= 1, got {repeats}")
        sweep.repeats = repeats
    sweep.validate()
    specs = sweep.expand()
    if isinstance(backend, ExecutorBackend):
        executor = backend
    else:
        executor = executor_by_name(backend or "pool")
    store = ResultStore(out_dir)
    prior = store.load_sweep_name()
    if prior is not None and prior != sweep.name:
        raise SpecError(
            f"run directory {store.root} already holds sweep {prior!r}; "
            f"refusing to mix in {sweep.name!r} — use a different --out"
        )
    store.save_sweep(sweep.to_dict())
    outcome = SweepOutcome(
        sweep=sweep.name, out_dir=Path(out_dir), backend=executor.name
    )
    emitter = None
    if telemetry:
        from repro.obs.telemetry import TelemetryWriter

        # Creating the writer creates <run-dir>/telemetry/, which is
        # the switch queue workers (local or external) key off.
        emitter = TelemetryWriter(Path(out_dir), "scheduler")

    # Identical specs (e.g. a duplicated grid value) collapse to one
    # before any accounting, so cached/executed totals agree across
    # repeat invocations of the same sweep.
    unique: Dict[str, ExperimentSpec] = {}
    for spec in specs:
        unique.setdefault(spec.spec_hash, spec)

    cached_hashes = set() if force else store.ok_hashes()
    pending: List[ExperimentSpec] = []
    cached_specs: List[ExperimentSpec] = []
    for spec in unique.values():
        if spec.spec_hash in cached_hashes:
            outcome.cached += 1
            cached_specs.append(spec)
            if progress:
                progress(f"cached  {spec.label} ({spec.spec_hash})")
        else:
            pending.append(spec)

    payloads = [
        {
            "spec_hash": s.spec_hash,
            "experiment": s.experiment,
            "params": dict(s.params),
            "repeat": s.repeat,
            "seed": s.seed,
        }
        for s in pending
    ]
    if profile:
        for payload in payloads:
            payload["profile"] = True
    resolved_jobs = jobs if jobs is not None else default_jobs()
    run_start = time.perf_counter()
    if emitter is not None:
        emitter.emit(
            "run_started",
            sweep=sweep.name,
            total=len(unique),
            cached=outcome.cached,
            backend=executor.name,
            jobs=resolved_jobs,
        )
        for spec in cached_specs:
            emitter.emit("spec_cached", spec_hash=spec.spec_hash)

    def finish() -> SweepOutcome:
        if emitter is not None:
            emitter.emit(
                "run_finished",
                sweep=sweep.name,
                executed=len(outcome.executed),
                failed=len(outcome.failed),
                wall_s=time.perf_counter() - run_start,
            )
        return outcome

    if not payloads:
        return finish()
    labels = {s.spec_hash: s.label for s in pending}
    ctx = ExecutionContext(
        store=store,
        jobs=resolved_jobs,
        sweep=sweep.name,
        git=git_metadata(repo_dir=None),
    )
    # One scheduler per run directory: advisory, heartbeated on every
    # persisted record, stale-taken-over if a prior scheduler crashed.
    with store.writer_lock() as lock:
        # Every backend persists records as they land (not after the
        # run drains), so an interrupted sweep keeps every completed
        # spec in the cache.
        for record in executor.execute(payloads, ctx):
            outcome.executed.append(record)
            lock.refresh()
            if emitter is not None:
                emitter.emit(
                    "record",
                    spec_hash=record.spec_hash,
                    status=record.status,
                    wall_s=record.wall_time_s,
                    label=labels.get(record.spec_hash, record.spec_hash),
                )
            if progress:
                state = "ok     " if record.ok else "FAILED "
                label = labels.get(record.spec_hash, record.spec_hash)
                progress(f"{state} {label} ({record.wall_time_s:.2f}s)")
    return finish()
