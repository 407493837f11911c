"""Experiment orchestration: declarative sweeps, serial or pooled
execution, persistent results, and report generation.

Layers (each its own module):

* :mod:`repro.experiments.spec` — ``ExperimentSpec``/``SweepSpec``
  declarative descriptions with grid expansion and content hashing.
* :mod:`repro.experiments.runner` — the sweep scheduler: expansion,
  result cache, per-spec seeding, and execution in process
  (``serial``) or on a fork pool (``pool``).
* :mod:`repro.experiments.exec` — the advisory lock that makes the
  scheduler a run directory's only writer.
* :mod:`repro.experiments.store` — sharded JSONL ``ResultStore``
  persisting every result with spec hash, wall time, git metadata,
  and per-shard indexes for streaming aggregation.
* :mod:`repro.experiments.report` — lazily-computed ``RunReport``
  (per-experiment MAPE, markdown summaries), run-vs-run deltas, and
  the significance-testing ``RunAnalysis`` over repeat groups.
* :mod:`repro.experiments.stats` — the pure numpy stats core:
  Mann-Whitney U, Holm-Bonferroni, Cliff's delta/A12, seeded
  bootstrap CIs.
* :mod:`repro.experiments.plotting`/:mod:`repro.experiments.rendering`
  — distribution plots (deterministic SVG, optional matplotlib) and
  the self-contained HTML report renderer.
* :mod:`repro.experiments.presets` — built-in sweeps (``quick``,
  ``paper``, ``significance``).

The CLI exposes the subsystem as ``repro sweep``, ``repro report``,
``repro compare``, and ``repro analyze``.
"""

from repro.experiments.presets import PRESETS, preset_sweep
from repro.experiments.report import (
    MetricComparison,
    RunAnalysis,
    RunReport,
    SampleGroup,
    analyze_run,
    compare_runs,
    group_samples,
)
from repro.experiments.runner import SweepOutcome, default_jobs, run_sweep
from repro.experiments.spec import (
    ExperimentSpec,
    SpecError,
    SweepGroup,
    SweepSpec,
)
from repro.experiments.store import (
    LoadResult,
    ResultStore,
    StoreCorruptionWarning,
    StoredResult,
)

__all__ = [
    "PRESETS",
    "preset_sweep",
    "MetricComparison",
    "RunAnalysis",
    "RunReport",
    "SampleGroup",
    "analyze_run",
    "compare_runs",
    "group_samples",
    "SweepOutcome",
    "default_jobs",
    "run_sweep",
    "ExperimentSpec",
    "SpecError",
    "SweepGroup",
    "SweepSpec",
    "LoadResult",
    "ResultStore",
    "StoreCorruptionWarning",
    "StoredResult",
]
