"""Benchmark of the CXL.cache simulator: four workloads, end to end and per layer.

    python3 perfbench/run.py --workload paper|fanout-rw|supernode-rw|sweep \
        [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --list-metrics

Run from the repository root.  One process drives the program's public API
in a closed loop with one client (see ``suite.py`` for the workloads); only
the ``sweep`` workload's pool backend adds workers, at most ``nproc``.

* ``setup_s`` — importing ``repro`` plus one untimed warm-up op, measured in
  five fresh interpreters and in this process; the median is reported.
* ``--trace 0`` repeats whole passes of the workload for ``--seconds`` and
  reports the end-to-end metrics, with no wrapper installed.  Every pass
  does identical work.  On a shared host the CPU's speed drifts by a third
  over minutes, so the ops of a pass are interleaved with a fixed reference
  simulation (``hostspeed.py``) and host times are reported in calm-host
  seconds: ``wall_s`` is the mean pass scaled by the reference's speed over
  the run, the throughputs follow from it, and ``setup_s`` is scaled the
  same way.  ``sweep`` runs its specs in pool workers, with no point
  between ops for the reference; its times are unscaled and come from the
  fastest of its ~15 short passes, the one least slowed by neighbours.
  The unscaled pass times are printed too.
* ``--trace 1`` spends half the time on untraced passes and half on traced
  ones (``spans.py``), and reports the per-layer metrics of the traced
  passes, in unscaled host time, plus ``trace_overhead_frac`` (calm-host
  traced over untraced pass time).  The traced ``sweep`` run uses the
  serial backend, since spans in forked workers never reach this process.
  Spans are written to ``.perfbench/trace-<workload>-<seed>.json``.

Every output is checked against ``expected.json``.  The last line of
standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
An op *fails* if it raises or its output differs from the stored value;
``correct`` is false only when an outcome contradicts what is stored (the
DirtyEvict race seeds of ``fanout-rw`` are stored as expected errors).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import hostspeed
import spans
import suite

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench"
SETUP_PROBES = 5
DEFAULT_SEED = 1
HOLDOUT_SEED = 424242

PAPER_IDS = (
    "table1", "fig4", "table2", "fig12", "fig13", "fig14", "fig15",
    "fig16", "fig17", "fig18a", "fig18b", "headline", "mape",
)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "specs_per_s": "specs/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "fail_frac": "ratio",
    "calib_error_pct": "%",
    "holdout_error_pct": "%",
    "sim_ops_per_s": "ops/s",
    "trace_overhead_frac": "ratio",
    "sim.run_s": "s",
    "sim.events": "count",
    "sim.ns_per_event": "ns",
    "cache.llc.requests": "count",
    "cache.llc.hit_rate": "ratio",
    "cache.llc.snoops_sent": "count",
    "cache.llc.writebacks": "count",
    "cache.llc.trace_len": "count",
    "cache.hmc.hit_rate": "ratio",
    "cache.hmc.snoops_received": "count",
    "cache.protocol_errors": "count",
    "cxl.dcoh.reads": "count",
    "cxl.dcoh.writes": "count",
    "cxl.dcoh.evictions_issued": "count",
    "core.supernode.access_s": "s",
    "core.supernode.remote_accesses": "count",
    "core.supernode.filter_rate": "ratio",
    "workloads.batch_s": "s",
    "workloads.drive_self_s": "s",
    "system.build_s": "s",
    "system.builds": "count",
    "rpc.make_bench_s": "s",
    "rpc.comparison_s": "s",
    "rao.comparison_s": "s",
    "calibration.testbench_s": "s",
    "harness.render_s": "s",
    **{f"harness.{exp_id}_s": "s" for exp_id in PAPER_IDS},
    "experiments.expand_s": "s",
    "experiments.execute_s": "s",
    "experiments.store_append_s": "s",
    "experiments.analyze_s": "s",
    "experiments.spec_wall_s": "s",
    "experiments.orchestration_s": "s",
    "obs.telemetry_events": "count",
    "obs.telemetry_s": "s",
}

perf_counter = time.perf_counter


def use_checkout_source() -> None:
    """Import ``repro`` from this checkout's ``src/``, or exit 2."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}/repro", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(suite.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list-metrics", action="store_true",
                        help="print every metric with its unit and exit")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.list_metrics and args.workload is None:
        parser.error("--workload is required")
    return args


def make_workload(args: argparse.Namespace):
    options = {}
    if args.workload == "sweep":
        options["work_dir"] = WORK_ROOT / "runs"
        options["work_dir"].mkdir(parents=True, exist_ok=True)
        if args.trace:
            options["backend"] = "serial"
    return suite.WORKLOADS[args.workload](args.seed, suite.load_expected(), **options)


def set_up(args: argparse.Namespace):
    """Import the program and run one untimed warm-up op."""
    start = perf_counter()
    import repro  # noqa: F401

    workload = make_workload(args)
    warm_up = workload.warm_up()
    return workload, warm_up, perf_counter() - start


def probe_setup(args: argparse.Namespace) -> float:
    """Set-up time of a fresh interpreter running the same workload."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
        "--trace", str(args.trace),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=150, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def measure(workload, seconds: float, passes: List) -> Optional[hostspeed.Clock]:
    """Repeat whole passes until ``seconds`` have gone (at least one).

    Returns the clock that timed the reference between the ops, or None
    for a workload whose ops run in parallel workers (``sweep``).
    """
    clock = hostspeed.Clock() if workload.ops_in_series else None
    deadline = perf_counter() + seconds
    while True:
        passes.append(workload.run_pass(clock))
        if perf_counter() >= deadline:
            return clock


def pass_s(passes: List, clock: Optional[hostspeed.Clock]) -> float:
    """Host time of one pass: calm-host seconds of the mean pass when a
    clock ran, else the fastest pass (the one least slowed by neighbours)."""
    if clock is None:
        return min(p.wall_s for p in passes)
    return clock.calm(statistics.mean(p.wall_s for p in passes))


def ratio(part: float, other: float) -> float:
    return part / (part + other) if part + other else 0.0


def layer_metrics(tracer, result) -> Dict[str, float]:
    """Per-layer numbers of one traced pass."""
    totals = tracer.self_times()
    counters = tracer.counters

    def self_s(name):
        return totals[name][2] if name in totals else 0.0

    def inclusive_s(name):
        return totals[name][1] if name in totals else 0.0

    def count(name):
        return totals[name][0] if name in totals else 0

    events = counters["sim.events"]
    supernode = tracer.hot.get("core.supernode.access", [0, 0.0])
    execute = inclusive_s("experiments.execute")
    metrics = {
        "sim.run_s": self_s("sim.run"),
        "sim.events": events,
        "sim.ns_per_event": self_s("sim.run") / events * 1e9 if events else 0.0,
        "cache.llc.requests": counters["cache.llc.requests"],
        "cache.llc.hit_rate": ratio(counters["llc.hits"], counters["llc.misses"]),
        "cache.llc.snoops_sent": counters["cache.llc.snoops_sent"],
        "cache.llc.writebacks": counters["cache.llc.writebacks"],
        "cache.llc.trace_len": tracer.trace_len_peak,
        "cache.hmc.hit_rate": ratio(counters["hmc.hits"], counters["hmc.misses"]),
        "cache.hmc.snoops_received": counters["cache.hmc.snoops_received"],
        "cache.protocol_errors": counters["cache.protocol_errors"],
        "cxl.dcoh.reads": counters["cxl.dcoh.reads"],
        "cxl.dcoh.writes": counters["cxl.dcoh.writes"],
        "cxl.dcoh.evictions_issued": counters["cxl.dcoh.evictions_issued"],
        "core.supernode.access_s": supernode[1],
        "core.supernode.remote_accesses": counters["core.supernode.remote_accesses"],
        "core.supernode.filter_rate": ratio(
            counters["supernode.local_hits"], counters["supernode.global_requests"]
        ),
        "workloads.batch_s": self_s("workloads.batch"),
        "workloads.drive_self_s": self_s("workloads.drive"),
        "system.build_s": self_s("system.build"),
        "system.builds": count("system.build"),
        "rpc.make_bench_s": self_s("rpc.make_bench"),
        "rpc.comparison_s": self_s("rpc.comparison"),
        "rao.comparison_s": self_s("rao.comparison"),
        "calibration.testbench_s": self_s("calibration.testbench"),
        "harness.render_s": self_s("harness.render"),
        "experiments.expand_s": self_s("experiments.expand"),
        "experiments.execute_s": execute,
        "experiments.store_append_s": self_s("experiments.store_append"),
        "experiments.analyze_s": self_s("experiments.analyze"),
        "experiments.spec_wall_s": result.spec_wall_s,
        "experiments.orchestration_s": execute - result.spec_wall_s if execute else 0.0,
        "obs.telemetry_events": count("obs.telemetry"),
        "obs.telemetry_s": self_s("obs.telemetry"),
    }
    for exp_id in PAPER_IDS:
        metrics[f"harness.{exp_id}_s"] = inclusive_s(f"harness.{exp_id}")
    return metrics


def run_traced(workload, args, untraced: List, traced: List
               ) -> Tuple[Dict[str, float], Optional[hostspeed.Clock]]:
    """Per-layer metrics of traced passes, and the clock of the untraced ones."""
    clock = measure(workload, args.seconds / 2, untraced)
    tracer = spans.Tracer()
    patches = spans.install(tracer)
    traced_clock = hostspeed.Clock() if workload.ops_in_series else None
    rows = []
    try:
        deadline = perf_counter() + args.seconds / 2
        while True:
            tracer.start_pass()
            traced.append(workload.run_pass(traced_clock))
            rows.append(layer_metrics(tracer, traced[-1]))
            if perf_counter() >= deadline:
                break
    finally:
        patches.remove()
    tracer.dump(WORK_ROOT / f"trace-{args.workload}-{args.seed}.json")
    metrics = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    metrics["trace_overhead_frac"] = (
        pass_s(traced, traced_clock) / pass_s(untraced, clock) - 1
    )
    return metrics, clock


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.list_metrics:
        for name, unit in {**END_TO_END, **PER_LAYER}.items():
            kind = "end_to_end" if name in END_TO_END else "per_layer"
            print(f"{kind:10} {name:32} {unit}")
        return 0
    use_checkout_source()
    WORK_ROOT.mkdir(exist_ok=True)
    if args.setup_probe:
        print(json.dumps({"setup_s": set_up(args)[2]}))
        return 0

    setup_samples = [probe_setup(args) for _ in range(SETUP_PROBES)]
    workload, warm_up, seconds = set_up(args)
    setup_samples.append(seconds)

    untraced, traced = [], []
    if args.trace:
        layer, clock = run_traced(workload, args, untraced, traced)
    else:
        clock = measure(workload, args.seconds, untraced)

    passes = untraced + traced
    ops = [op for p in passes for op in p.ops]
    failed = [op for op in ops if op.failed]
    correct = not warm_up.wrong and all(p.correct for p in passes) and not any(
        op.wrong for op in ops
    )

    accuracy = passes[-1].accuracy
    wall = pass_s(untraced, clock)
    # Every pass does the same ops; only sweep's spend time outside them.
    execute = wall if clock is not None else min(p.execute_s for p in untraced)
    setup = statistics.median(setup_samples)
    report = {
        # Set-up has no ops to interleave with; the run's clock scales it.
        "setup_s": clock.calm(setup) if clock is not None else setup,
        "wall_s": wall,
        "specs_per_s": len(untraced[0].ops) / execute,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "fail_frac": len(failed) / len(ops),
        "calib_error_pct": accuracy.get("calib_error_pct", 0.0),
        "holdout_error_pct": accuracy.get("holdout_error_pct", 0.0),
        "sim_ops_per_s": untraced[0].sim_ops / execute,
    }
    if args.trace:
        report.update(layer)
    for name, value in report.items():
        unit = END_TO_END.get(name) or PER_LAYER[name]
        print(f"{name} = {value:.6g} {unit}")
    print(f"fastest_pass_s = {min(p.wall_s for p in untraced):.6g} s")
    print(f"median_pass_s = {statistics.median(p.wall_s for p in untraced):.6g} s")
    if clock is not None:
        print(f"calm_scale = {clock.calm(1.0):.4f} over {len(clock.samples)} references")
    print("pass_s = " + " ".join(f"{p.wall_s:.4f}" for p in passes))
    print(f"passes = {len(untraced)} untraced, {len(traced)} traced"
          + (" (sweep traced on the serial backend)"
             if args.trace and args.workload == "sweep" else ""))
    outputs = sorted({(op.name, op.digest or op.error) for op in ops})
    print(f"output_digest = {suite.digest(outputs)}")
    for text in sorted({op.error for op in failed}):
        names = sorted({op.name for op in failed if op.error == text})
        print(f"failed {','.join(names)}: {text}")

    chosen = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {
            name: {"value": report[name], "unit": unit} for name, unit in chosen.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
