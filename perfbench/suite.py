"""The benchmark's four workloads and the checks on their outputs.

Closed loop, one client: every op is one call into the program's public
API, issued only after the previous one returned.  Each workload turns the
workload seed into the same inputs every time, and checks every output
against ``expected.json`` (regenerate it with ``record.py``).

* ``paper`` — the 13 paper experiments through ``run_experiment``, in
  ``repro run all`` order.  They take no seed, so neither does this
  workload.  The only workload where the rpc, rao, calibration and harness
  layers do most of the work; its traffic is single-device and
  read-dominated.
* ``fanout-rw`` — ``rw-mix(10000,0.5)`` on ``fanout(4)``, four streams,
  ASIC profile.  All four devices share a 4096-line set, twice one HMC, so
  RFOs, snoops, dirty evictions and the LLC directory are busy.  Per-op
  seeds come from a stored pool, stratified by today's outcome: every pass
  holds two seeds that hit the DirtyEvict race and six that complete, so
  each run does the same mix of work whatever the workload seed.
* ``supernode-rw`` — ``rw-mix(50000,0.7)`` on ``supernode(4)`` through the
  synchronous supernode path; ``core.supernode`` does nearly all the work
  and the event engine none.
* ``sweep`` — the ``significance`` preset's scenario (workload-mix zipf on
  fanout(4) vs fanout(8)) over 150 seeds per topology drawn from a stored
  pool, run by ``run_sweep`` with the default backend, ``nproc`` jobs,
  ``force=True`` and a fresh run directory, then ``analyze_run``.  Each
  spec is ~10 ms of simulation, so orchestration dominates.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from hostspeed import Clock

perf_counter = time.perf_counter

EXPECTED_PATH = Path(__file__).with_name("expected.json")

PROFILE = "asic"

#: Hold-out points of the accuracy check: every number the paper reports
#: that is not a calibration point of the ``mape`` experiment, as
#: ``(experiment, measured series, paper series)``.
HOLDOUT_SERIES = (
    ("fig12", "median_ns", "paper_median_ns"),
    ("fig14", "PCIe-FPGA@400MHz", "paper:PCIe-FPGA@400MHz"),
    ("fig16", "PCIe-FPGA@400MHz", "paper:PCIe-FPGA@400MHz"),
    ("fig17", "speedup", "paper_speedup"),
    ("fig18a", "speedup", "paper_speedup"),
    ("fig18b", "speedup_mem", "paper_speedup_mem"),
    ("headline", "measured", "paper"),
)


def digest(value: object) -> str:
    blob = json.dumps(value, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def error_text(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def load_expected() -> Dict[str, object]:
    return json.loads(EXPECTED_PATH.read_text())


@dataclass
class OpOutcome:
    """One timed call and how its output compared with the stored value.

    ``status`` is ``ok`` (digest matches), ``unchecked`` (completed, but
    nothing is stored for it — a seed that raised when recorded and no
    longer does), ``expected-raise`` (raised exactly the recorded error),
    ``raised`` (raised anything else) or ``mismatch``.
    """

    name: str
    seconds: float
    status: str
    error: str = ""
    digest: str = ""  # of the output, when the op completed

    @property
    def failed(self) -> bool:
        return self.status in ("expected-raise", "raised", "mismatch")

    @property
    def wrong(self) -> bool:
        """The outcome contradicts what is stored with the benchmark."""
        return self.status in ("raised", "mismatch")


@dataclass
class PassResult:
    ops: List[OpOutcome]
    wall_s: float
    execute_s: float  # host time inside the timed op calls
    sim_ops: int = 0  # simulated memory ops completed
    spec_wall_s: float = 0.0  # sweep only: sum of StoredResult.wall_time_s
    correct: bool = True  # pass-level checks beyond the per-op digests
    accuracy: Dict[str, float] = field(default_factory=dict)


def timed_op(
    name: str,
    stored: Optional[Dict[str, str]],
    call: Callable[[], object],
    to_digest: Callable[[object], object],
) -> Tuple[OpOutcome, object]:
    """Run ``call`` once and classify its outcome against ``stored``."""
    start = perf_counter()
    try:
        value = call()
    except Exception as exc:  # an op that raises is counted, not fatal
        seconds = perf_counter() - start
        text = error_text(exc)
        status = "expected-raise" if stored and stored.get("error") == text else "raised"
        return OpOutcome(name, seconds, status, text), None
    seconds = perf_counter() - start
    got = digest(to_digest(value))
    if not stored or "digest" not in stored:
        return OpOutcome(name, seconds, "unchecked", digest=got), value
    status = "ok" if got == stored["digest"] else "mismatch"
    return OpOutcome(name, seconds, status, digest=got), value


class Paper:
    """One ``repro run all`` pass, in process."""

    name = "paper"
    ops_in_series = True
    warm_up_id = "fig13"

    def __init__(self, _seed: int, expected: Dict[str, object], **_options) -> None:
        from repro.harness import experiments

        self.experiments = experiments
        self.stored = expected["paper"]

    def _run(self, exp_id: str) -> Tuple[OpOutcome, object]:
        return timed_op(
            exp_id,
            {"digest": self.stored["texts"].get(exp_id)},
            lambda: self.experiments.run_experiment(exp_id),
            lambda result: result.text,
        )

    def warm_up(self) -> OpOutcome:
        return self._run(self.warm_up_id)[0]

    def run_pass(self, clock: Optional[Clock] = None) -> PassResult:
        """One pass; ``clock`` times its reference after the ops, and that
        time is left out of the pass's."""
        # fig18a/b share one memoised RPC comparison; clear it so every
        # pass pays for it once, as a fresh `repro run all` does.
        self.experiments.shared_rpc_comparison.cache_clear()
        start, paused = perf_counter(), 0.0
        ops, results = [], {}
        for exp_id in self.experiments.PAPER_EXPERIMENT_IDS:
            outcome, result = self._run(exp_id)
            if clock is not None:
                paused += clock.after_op(outcome.seconds)
            ops.append(outcome)
            if result is not None:
                results[exp_id] = result
        wall = perf_counter() - start - paused
        golden = ""
        if len(results) == len(ops):
            text = "".join(result.text + "\n\n" for result in results.values())
            golden = hashlib.sha256(text.encode()).hexdigest()
        return PassResult(
            ops, wall, wall,
            correct=golden == self.stored["run_all_sha256"],
            accuracy=accuracy(results),
        )


def accuracy(results: Dict[str, object]) -> Dict[str, float]:
    """Calibration and hold-out error (%) of one paper pass."""
    out = {}
    if "mape" in results:
        out["calib_error_pct"] = results["mape"].series["overall"]["mape"] * 100
    errors = []
    for exp_id, measured_key, paper_key in HOLDOUT_SERIES:
        if exp_id not in results:
            return out
        series = results[exp_id].series
        measured, paper = series[measured_key], series[paper_key]
        errors.extend(abs(measured[k] - ref) / abs(ref) for k, ref in paper.items())
    out["holdout_error_pct"] = 100 * sum(errors) / len(errors)
    return out


def make_driver():
    from repro.config import system_by_name
    from repro.workloads.driver import WorkloadDriver

    return WorkloadDriver(system_by_name(PROFILE))


class DriverWorkload:
    """``WorkloadDriver.run`` over per-op seeds drawn from a stored pool."""

    name = ""
    ops_in_series = True
    workload = ""
    topology = ""
    streams = 4
    racing_per_pass = 0
    clean_per_pass = 8

    def __init__(self, seed: int, expected: Dict[str, object], **_options) -> None:
        self.driver = make_driver()
        self.stored = expected[self.name]["seeds"]
        racing = sorted(int(s) for s, e in self.stored.items() if "error" in e)
        clean = sorted(int(s) for s, e in self.stored.items() if "digest" in e)
        rng = random.Random(seed)
        self.seeds = rng.sample(racing, self.racing_per_pass) + rng.sample(
            clean, self.clean_per_pass
        )
        rng.shuffle(self.seeds)
        self.warm_up_seed = clean[0]

    @classmethod
    def measure(cls, driver, op_seed: int):
        return driver.run(
            cls.workload, topology=cls.topology, seed=op_seed, streams=cls.streams
        )

    def _run(self, op_seed: int) -> Tuple[OpOutcome, object]:
        return timed_op(
            f"seed{op_seed}",
            self.stored.get(str(op_seed)),
            lambda: self.measure(self.driver, op_seed),
            lambda measurement: measurement.to_dict(),
        )

    def warm_up(self) -> OpOutcome:
        return self._run(self.warm_up_seed)[0]

    def run_pass(self, clock: Optional[Clock] = None) -> PassResult:
        """One pass; ``clock`` times its reference after the ops, and that
        time is left out of the pass's."""
        start, paused = perf_counter(), 0.0
        ops, sim_ops = [], 0
        for op_seed in self.seeds:
            outcome, measurement = self._run(op_seed)
            if clock is not None:
                paused += clock.after_op(outcome.seconds)
            ops.append(outcome)
            if measurement is not None:
                sim_ops += measurement.ops
        wall = perf_counter() - start - paused
        return PassResult(ops, wall, wall, sim_ops=sim_ops)


class FanoutRw(DriverWorkload):
    name = "fanout-rw"
    workload = "rw-mix(10000,0.5)"
    topology = "fanout(4)"
    racing_per_pass = 2
    clean_per_pass = 6


class SupernodeRw(DriverWorkload):
    name = "supernode-rw"
    workload = "rw-mix(50000,0.7)"
    topology = "supernode(4)"


def worker_count() -> int:
    return len(os.sched_getaffinity(0))


class Sweep:
    """``run_sweep`` + ``analyze_run`` over a fresh run directory per pass."""

    name = "sweep"
    ops_in_series = False  # specs run in parallel pool workers
    seeds_per_topology = 150

    def __init__(self, seed: int, expected: Dict[str, object],
                 work_dir: Path, backend: Optional[str] = None) -> None:
        from repro.experiments import report, runner
        from repro.experiments.presets import PRESETS
        from repro.experiments.spec import SweepSpec

        self.report, self.runner, self.spec_type = report, runner, SweepSpec
        self.stored = expected["sweep"]["series"]
        pool = expected["sweep"]["seed_pool"]
        seeds = sorted(random.Random(seed).sample(pool, self.seeds_per_topology))
        self.sweep = self.sweep_dict(PRESETS["significance"], seeds)
        self.warm_up_sweep = self.sweep_dict(PRESETS["significance"], seeds[:1])
        self.warm_up_sweep["experiments"][0]["grid"]["topology"] = ["fanout(4)"]
        self.work_dir = work_dir
        self.backend = backend  # None: run_sweep's default
        self.runs = 0

    @staticmethod
    def sweep_dict(preset: Dict[str, object], seeds: List[int]) -> Dict[str, object]:
        """The preset's scenario with its seeds swept explicitly."""
        sweep = copy.deepcopy(preset)
        sweep["repeats"] = 1
        sweep["experiments"][0]["grid"]["seed"] = list(seeds)
        return sweep

    def _sweep(self, sweep: Dict[str, object]) -> PassResult:
        self.runs += 1
        out = self.work_dir / f"run-{os.getpid()}-{self.runs}"
        start = perf_counter()
        try:
            outcome = self.runner.run_sweep(
                self.spec_type.from_dict(sweep), out, jobs=worker_count(),
                force=True, backend=self.backend,
            )
            execute = perf_counter() - start
            analysis = self.report.analyze_run(out).markdown()
            wall = perf_counter() - start
        finally:
            shutil.rmtree(out, ignore_errors=True)
        ops, sim_ops = [], 0
        for record in outcome.executed:
            stored = self.stored.get(record.spec_hash)
            if not record.ok:
                error = (record.error or "").strip().splitlines()[-1:]
                ops.append(OpOutcome(record.spec_hash, record.wall_time_s, "raised",
                                     "".join(error)))
                continue
            sim_ops += int(record.series["counts"]["ops"])
            got = digest(record.series)
            status = "ok" if got == stored else "mismatch"
            ops.append(OpOutcome(record.spec_hash, record.wall_time_s, status, digest=got))
        return PassResult(
            ops, wall, execute, sim_ops=sim_ops,
            spec_wall_s=sum(op.seconds for op in ops),
            # The report must exist and name the fanout groups it compares.
            correct=bool(ops) and "fanout" in analysis,
        )

    def warm_up(self) -> OpOutcome:
        return self._sweep(self.warm_up_sweep).ops[0]

    def run_pass(self, _clock: Optional[Clock] = None) -> PassResult:
        """One pass.  Its specs run in parallel pool workers, with no point
        between ops to time a reference at, so it takes no clock."""
        return self._sweep(self.sweep)


WORKLOADS = {w.name: w for w in (Paper, FanoutRw, SupernodeRw, Sweep)}
