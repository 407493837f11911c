"""Command-line interface: run the paper's experiments from a shell.

Usage::

    python -m repro list
    python -m repro run fig13 fig15
    python -m repro run all --out results.txt
    python -m repro run --list
    python -m repro info
    python -m repro topology list
    python -m repro topology show fanout-4
    python -m repro topology dump fanout-2 --out fanout2.json
    python -m repro topology load fanout2.json
    python -m repro topology validate examples/topologies/*.json
    python -m repro workload list
    python -m repro workload show "zipf(256,1.2)"
    python -m repro workload record mixed --seed 7 --out mixed.jsonl
    python -m repro workload replay mixed.jsonl --topology fanout-2
    python -m repro fault list
    python -m repro fault show storm
    python -m repro fault validate examples/faults/*.json
    python -m repro sweep --preset quick --jobs 4
    python -m repro sweep fault-tolerance --backend serial
    python -m repro sweep topology-scale --jobs 2
    python -m repro sweep my_sweep.json --out runs/mine
    python -m repro timeline runs/quick --out trace.json
    python -m repro run fig13 --profile
    python -m repro sweep --preset quick --profile
    python -m repro report runs/quick
    python -m repro compare runs/a runs/b
    python -m repro sweep significance --repeats 10 --out runs/sig
    python -m repro analyze runs/sig --html runs/sig/report.html
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import IO, List, Optional

from repro import __version__
from repro.harness.experiments import (
    EXPERIMENTS,
    PAPER_EXPERIMENT_IDS,
    run_experiment,
)


def _write_experiment_listing(out: IO[str]) -> None:
    width = max(len(name) for name in EXPERIMENTS)
    out.write("available experiments:\n")
    for name in EXPERIMENTS:
        doc = ((EXPERIMENTS[name].__doc__ or "").strip().splitlines() or [""])[0]
        out.write(f"  {name:<{width}}  {doc}\n")


def _cmd_list(_args: argparse.Namespace, out: IO[str]) -> int:
    _write_experiment_listing(out)
    return 0


def _cmd_run(args: argparse.Namespace, out: IO[str]) -> int:
    if args.list:
        _write_experiment_listing(out)
        return 0
    if not args.experiments:
        sys.stdout.write("run needs experiment id(s), 'all', or --list\n")
        return 2
    names: List[str] = []
    for name in args.experiments:
        if name == "all":
            # 'all' is the paper set; extension experiments run by id.
            names.extend(PAPER_EXPERIMENT_IDS)
        else:
            names.append(name)
    names = list(dict.fromkeys(names))  # 'fig13 all' runs fig13 once
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        # Diagnostics go to the terminal, never into an --out file.
        sys.stdout.write(f"unknown experiment(s): {', '.join(unknown)}\n")
        sys.stdout.write(
            f"options: {', '.join(EXPERIMENTS)} or 'all' "
            "(see 'repro run --list' for descriptions)\n"
        )
        return 2
    if args.profile:
        from repro.obs import profile

        with profile() as profiler:
            for name in names:
                result = run_experiment(name)
                out.write(result.text)
                out.write("\n\n")
        out.write(profiler.render())
        out.write("\n")
        return 0
    for name in names:
        result = run_experiment(name)
        out.write(result.text)
        out.write("\n\n")
    return 0


def _cmd_topology(args: argparse.Namespace, out: IO[str]) -> int:
    from repro.system import (
        TopologySchemaError,
        dump_topology,
        load_topology,
        topology_by_name,
        topology_description,
        topology_names,
    )

    if args.out and args.action != "dump":
        out.write("--out is only valid with 'repro topology dump'\n")
        return 2
    if args.action == "list":
        names = topology_names()
        width = max(len(name) for name in names)
        out.write("registered topologies:\n")
        for name in names:
            out.write(f"  {name:<{width}}  {topology_description(name)}\n")
        return 0
    if args.action == "validate":
        if not args.names:
            out.write("topology validate needs one or more JSON spec files\n")
            return 2
        failures = 0
        for raw in args.names:
            try:
                topology = load_topology(raw)
            except TopologySchemaError as exc:
                out.write(f"FAIL {raw}: {exc}\n")
                failures += 1
            else:
                out.write(
                    f"ok   {raw}: {topology.name} "
                    f"({len(topology.nodes)} nodes, {len(topology.links)} links)\n"
                )
        return 2 if failures else 0
    if args.action == "load":
        if len(args.names) != 1:
            out.write("topology load needs exactly one JSON spec file\n")
            return 2
        try:
            topology = load_topology(args.names[0])
        except TopologySchemaError as exc:
            out.write(f"{exc}\n")
            return 2
        out.write(topology.describe())
        out.write("\n")
        return 0
    # show / dump take one registered name.
    if len(args.names) != 1:
        out.write(
            f"topology {args.action} needs a name (see 'repro topology list')\n"
        )
        return 2
    try:
        topology = topology_by_name(args.names[0])
    except ValueError as exc:
        out.write(f"{exc}\n")
        return 2
    if args.action == "dump":
        text = dump_topology(topology, args.out)
        if args.out:
            out.write(f"wrote {args.out}\n")
        else:
            out.write(text)
        return 0
    out.write(topology.describe())
    out.write("\n")
    return 0


def _cmd_workload(args: argparse.Namespace, out: IO[str]) -> int:
    from repro.config import system_by_name
    from repro.workloads import (
        UnknownWorkloadError,
        WorkloadDriver,
        WorkloadDriverError,
        WorkloadSchemaError,
        dump_trace,
        load_trace,
        resolve_workload,
        workload_description,
        workload_names,
    )

    if args.action == "list":
        names = workload_names()
        width = max(len(name) for name in names)
        out.write("registered workloads:\n")
        for name in names:
            out.write(f"  {name:<{width}}  {workload_description(name)}\n")
        return 0
    if args.action == "show":
        if len(args.names) != 1:
            out.write("workload show needs a name or reference "
                      "(see 'repro workload list')\n")
            return 2
        try:
            workload = resolve_workload(args.names[0])
        except (UnknownWorkloadError, WorkloadSchemaError, ValueError) as exc:
            out.write(f"{exc}\n")
            return 2
        out.write(workload.describe(seed=args.seed))
        out.write("\n")
        return 0
    if args.action == "record":
        if len(args.names) != 1:
            out.write("workload record needs a name or reference\n")
            return 2
        if not args.out:
            out.write("workload record needs --out TRACE.jsonl\n")
            return 2
        try:
            workload = resolve_workload(args.names[0])
            text = dump_trace(workload, seed=args.seed, path=args.out)
        except (UnknownWorkloadError, WorkloadSchemaError, ValueError) as exc:
            out.write(f"{exc}\n")
            return 2
        ops = len(text.splitlines()) - 1
        out.write(f"wrote {args.out}: {workload.name}, seed {args.seed}, "
                  f"{ops} ops\n")
        return 0
    # replay: drive a recorded trace (or a live reference) through a system.
    if len(args.names) != 1:
        out.write("workload replay needs a trace file (or workload reference)\n")
        return 2
    source = args.names[0]
    # Anything path-shaped (a .jsonl suffix or a directory separator)
    # is a trace file, so a mistyped path reports "cannot read trace"
    # instead of being misparsed as a workload reference.
    path = Path(source)
    is_trace = path.is_file() or path.suffix == ".jsonl" or len(path.parts) > 1
    try:
        if is_trace:
            workload = load_trace(source)
        else:
            workload = resolve_workload(source)
        driver = WorkloadDriver(system_by_name(args.profile))
        measurement = driver.run(
            workload,
            topology=args.topology,
            seed=args.seed,
            streams=args.streams,
        )
    except (UnknownWorkloadError, WorkloadSchemaError, WorkloadDriverError,
            ValueError) as exc:
        out.write(f"{exc}\n")
        return 2
    out.write(measurement.render())
    out.write("\n")
    return 0


def _cmd_fault(args: argparse.Namespace, out: IO[str]) -> int:
    from repro.faults import (
        FaultSchemaError,
        UnknownFaultPlanError,
        fault_plan_description,
        fault_plan_names,
        load_fault_plan,
        resolve_fault_plan,
    )

    if args.action == "list":
        names = fault_plan_names()
        width = max(len(name) for name in names)
        out.write("registered fault plans:\n")
        for name in names:
            out.write(f"  {name:<{width}}  {fault_plan_description(name)}\n")
        return 0
    if args.action == "validate":
        if not args.names:
            out.write("fault validate needs one or more JSON plan files\n")
            return 2
        failures = 0
        for raw in args.names:
            try:
                plan = load_fault_plan(raw)
            except FaultSchemaError as exc:
                out.write(f"FAIL {raw}: {exc}\n")
                failures += 1
            else:
                out.write(
                    f"ok   {raw}: {plan.name} ({len(plan.events)} events)\n"
                )
        return 2 if failures else 0
    # show: one registered name/reference, or a JSON plan file.
    if len(args.names) != 1:
        out.write("fault show needs a name or reference "
                  "(see 'repro fault list')\n")
        return 2
    source = args.names[0]
    try:
        if Path(source).is_file():
            plan = load_fault_plan(source)
        else:
            plan = resolve_fault_plan(source)
    except (UnknownFaultPlanError, FaultSchemaError, ValueError) as exc:
        out.write(f"{exc}\n")
        return 2
    out.write(plan.describe())
    out.write("\n")
    return 0


def _cmd_info(_args: argparse.Namespace, out: IO[str]) -> int:
    from repro.config import asic_system, fpga_system

    out.write(f"repro {__version__} — Cohet/SimCXL reproduction\n\n")
    for make in (fpga_system, asic_system):
        config = make()
        out.write(f"profile {config.name}:\n")
        out.write(f"  device        : {config.device.name}"
                  f" ({config.device.freq_mhz:.0f} MHz)\n")
        out.write(f"  HMC           : {config.device.hmc_size // 1024} KB,"
                  f" {config.device.hmc_ways}-way\n")
        out.write(f"  HMC hit       : {config.device.hmc_hit_ps / 1000:.1f} ns\n")
        out.write(f"  LLC hit       : {config.llc_hit_ps / 1000:.1f} ns\n")
        out.write(f"  mem hit       : {config.mem_hit_ps / 1000:.1f} ns\n")
        out.write(f"  DMA 64B       : {config.dma.transfer_ps(64) / 1000:.1f} ns\n")
    return 0


def _cmd_sweep(args: argparse.Namespace, out: IO[str]) -> int:
    from repro.experiments import (
        PRESETS,
        SpecError,
        SweepSpec,
        preset_sweep,
        run_sweep,
    )
    from repro.experiments.exec import LockHeldError

    if bool(args.spec) == bool(args.preset):
        out.write("sweep needs exactly one of: a spec file, or --preset NAME\n")
        out.write(f"presets: {', '.join(sorted(PRESETS))}\n")
        return 2
    try:
        if args.preset:
            sweep = preset_sweep(args.preset)
        else:
            spec_path = Path(args.spec)
            if spec_path.is_file():
                sweep = SweepSpec.from_file(spec_path)
            elif args.spec in PRESETS:
                # `repro sweep topology-scale` works without --preset.
                sweep = preset_sweep(args.spec)
            else:
                out.write(f"no such sweep spec file or preset: {args.spec}\n")
                out.write(f"presets: {', '.join(sorted(PRESETS))}\n")
                return 2
    except (SpecError, KeyError) as exc:
        # KeyError only reaches here from preset_sweep's unknown-preset
        # path; internal errors inside run_sweep below propagate.
        out.write(f"{exc.args[0] if exc.args else exc}\n")
        return 2
    if args.repeats is not None and args.repeats < 1:
        out.write(f"--repeats must be >= 1, got {args.repeats}\n")
        return 2
    out_dir = Path(args.out) if args.out else Path("runs") / sweep.name
    try:
        outcome = run_sweep(
            sweep,
            out_dir,
            jobs=args.jobs,
            force=args.force,
            progress=lambda line: out.write(line + "\n"),
            backend=args.backend,
            repeats=args.repeats,
            telemetry=not args.no_telemetry,
            profile=args.profile,
        )
    except (SpecError, LockHeldError) as exc:
        out.write(f"{exc}\n")
        return 2
    out.write(
        f"sweep {sweep.name!r} [{outcome.backend}]: {outcome.total} specs — "
        f"{len(outcome.executed) - len(outcome.failed)} ran ok, "
        f"{outcome.cached} cached, {len(outcome.failed)} failed\n"
    )
    out.write(f"results: {outcome.out_dir}\n")
    return 1 if outcome.failed else 0


def _cmd_timeline(args: argparse.Namespace, out: IO[str]) -> int:
    from repro.obs import write_timeline
    from repro.obs.telemetry import read_events

    run_dir = Path(args.run_dir)
    events, skipped = read_events(run_dir)
    if not events:
        out.write(
            f"no telemetry under {args.run_dir} — was the sweep run with "
            f"telemetry off (--no-telemetry), or before it existed?\n"
        )
        return 2
    path = write_timeline(run_dir, args.out)
    out.write(f"wrote {path}: {len(events)} telemetry event(s)")
    if skipped:
        out.write(f" ({skipped} malformed line(s) skipped)")
    out.write("\n")
    return 0


def _cmd_report(args: argparse.Namespace, out: IO[str]) -> int:
    from repro.experiments import ResultStore, RunReport

    store = ResultStore(args.run_dir)
    if not store.exists():
        out.write(f"no results found under {args.run_dir}\n")
        return 2
    report = RunReport(store)
    out.write(report.markdown())
    out.write("\n")
    profile = report.profile_markdown()
    if profile:
        out.write("\n")
        out.write(profile)
        out.write("\n")
    if report.failures:
        out.write("\nfailures:\n")
        for record in report.failures:
            first = (record.error or "").strip().splitlines()
            out.write(f"  {record.experiment} ({record.spec_hash}): "
                      f"{first[-1] if first else 'unknown error'}\n")
    return 0


def _cmd_analyze(args: argparse.Namespace, out: IO[str]) -> int:
    from repro.experiments import ResultStore, RunAnalysis
    from repro.experiments.stats import StatsError

    store = ResultStore(args.run_dir)
    if not store.exists():
        out.write(f"no results found under {args.run_dir}\n")
        return 2
    try:
        analysis = RunAnalysis(
            store,
            alpha=args.alpha,
            min_repeats=args.min_repeats,
            metrics=args.metric or None,
        )
    except StatsError as exc:
        out.write(f"{exc}\n")
        return 2
    out.write(analysis.markdown())
    out.write("\n")
    if args.html:
        from repro.experiments.plotting import PlotError
        from repro.experiments.rendering import write_html_report

        try:
            path = write_html_report(analysis, args.html, plots=args.plots)
        except PlotError as exc:
            out.write(f"{exc}\n")
            return 2
        out.write(f"wrote {path}\n")
    return 0


def _cmd_compare(args: argparse.Namespace, out: IO[str]) -> int:
    from repro.experiments import ResultStore, compare_runs

    stores = [ResultStore(args.run_a), ResultStore(args.run_b)]
    for store in stores:
        if not store.exists():
            out.write(f"no results found under {store.root}\n")
            return 2
    out.write(compare_runs(*stores))
    out.write("\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Cohet/SimCXL reproduction: regenerate the paper's tables and figures",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run = sub.add_parser("run", help="run one or more experiments (or 'all')")
    run.add_argument(
        "experiments", nargs="*", help="experiment id(s) (see 'list') or 'all'"
    )
    run.add_argument("--out", help="write results to this file instead of stdout")
    run.add_argument(
        "--list", action="store_true",
        help="list experiment ids with descriptions instead of running",
    )
    run.add_argument(
        "--profile", action="store_true",
        help="profile the simulator while running: events/sec plus "
        "per-component event and sampled callback-time attribution",
    )

    sub.add_parser("info", help="show calibrated profile summaries")

    topology = sub.add_parser(
        "topology",
        help="list, inspect, or (de)serialize registered system topologies",
    )
    topology.add_argument(
        "action", choices=["list", "show", "load", "dump", "validate"]
    )
    topology.add_argument(
        "names", nargs="*",
        help="topology name (show/dump) or JSON spec file(s) (load/validate)",
    )
    topology.add_argument(
        "--out", help="write 'dump' JSON to this file instead of stdout"
    )

    workload = sub.add_parser(
        "workload",
        help="list, inspect, record, or replay traffic workloads",
    )
    workload.add_argument(
        "action", choices=["list", "show", "record", "replay"]
    )
    workload.add_argument(
        "names", nargs="*",
        help="workload name/reference (show/record) or trace file (replay)",
    )
    workload.add_argument(
        "--seed", type=int, default=1234,
        help="expansion seed for show/record and live replay (default 1234)",
    )
    workload.add_argument(
        "--out", help="trace file to write ('record' only)"
    )
    workload.add_argument(
        "--topology", default="microbench",
        help="topology reference to replay through (default: microbench)",
    )
    workload.add_argument(
        "--profile", default="fpga",
        help="system profile for replay (default: fpga)",
    )
    workload.add_argument(
        "--streams", type=int, default=None,
        help="re-stripe a single-stream workload across N issue chains",
    )

    sweep = sub.add_parser(
        "sweep", help="run a parameter sweep in parallel, persisting results"
    )
    sweep.add_argument(
        "spec", nargs="?",
        help="path to a sweep spec JSON file, or a preset name",
    )
    sweep.add_argument("--preset", help="built-in sweep preset (e.g. 'quick')")
    sweep.add_argument(
        "--out", help="run directory for results (default: runs/<sweep name>)"
    )
    sweep.add_argument(
        "--jobs", type=int, default=None, help="parallel workers (default: auto)"
    )
    sweep.add_argument(
        "--force", action="store_true", help="re-run specs even when cached"
    )
    sweep.add_argument(
        "--backend", choices=["serial", "pool"], default=None,
        help="run specs in this process ('serial') or on a fork pool of "
        "--jobs processes ('pool', the default)",
    )
    sweep.add_argument(
        "--repeats", type=int, default=None, metavar="N",
        help="run every grid point N times with distinct deterministic "
        "seeds (overrides the sweep file's own repeat count); 'repro "
        "analyze' tests significance across the repeats",
    )
    sweep.add_argument(
        "--no-telemetry", action="store_true",
        help="do not write lifecycle events to <run-dir>/telemetry/ "
        "(disables 'repro timeline' for this run)",
    )
    sweep.add_argument(
        "--profile", action="store_true",
        help="run every spec under the simulator profiler and persist "
        "per-component attribution on its record ('repro report' "
        "aggregates it)",
    )

    fault = sub.add_parser(
        "fault",
        help="list, inspect, or validate fault-injection plans",
    )
    fault.add_argument("action", choices=["list", "show", "validate"])
    fault.add_argument(
        "names", nargs="*",
        help="plan name/reference (show) or JSON plan file(s) "
        "(validate; show also accepts a file)",
    )

    timeline = sub.add_parser(
        "timeline",
        help="export a run's telemetry as Chrome trace-event JSON "
        "(load in Perfetto or chrome://tracing)",
    )
    timeline.add_argument("run_dir", help="run directory of a sweep")
    timeline.add_argument(
        "--out", default=None,
        help="output path (default: <run-dir>/timeline.json)",
    )

    report = sub.add_parser("report", help="summarise a stored sweep run")
    report.add_argument("run_dir", help="run directory written by 'sweep'")

    compare = sub.add_parser("compare", help="delta table between two stored runs")
    compare.add_argument("run_a", help="baseline run directory")
    compare.add_argument("run_b", help="comparison run directory")

    analyze = sub.add_parser(
        "analyze",
        help="significance-test a repeat sweep: Mann-Whitney contrasts "
        "with Holm correction and effect sizes, optional HTML report",
    )
    analyze.add_argument("run_dir", help="run directory written by 'sweep'")
    analyze.add_argument(
        "--alpha", type=float, default=0.05,
        help="significance level after Holm correction (default 0.05)",
    )
    analyze.add_argument(
        "--metric", action="append", default=None, metavar="NAME",
        help="only test this metric (repeatable; default: all shared)",
    )
    analyze.add_argument(
        "--min-repeats", type=int, default=2,
        help="smallest group size worth testing (default 2)",
    )
    analyze.add_argument(
        "--html", default=None, metavar="PATH",
        help="also render a self-contained HTML report to PATH",
    )
    analyze.add_argument(
        "--plots", choices=["svg", "matplotlib", "none"], default="svg",
        help="distribution plot backend for --html (default: svg)",
    )
    return parser


_COMMANDS = {
    "list": _cmd_list,
    "run": _cmd_run,
    "info": _cmd_info,
    "topology": _cmd_topology,
    "workload": _cmd_workload,
    "fault": _cmd_fault,
    "sweep": _cmd_sweep,
    "timeline": _cmd_timeline,
    "report": _cmd_report,
    "compare": _cmd_compare,
    "analyze": _cmd_analyze,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    sink: IO[str] = sys.stdout
    close_sink = False
    if getattr(args, "out", None) and args.command == "run":
        sink = open(args.out, "w")
        close_sink = True
    try:
        return _COMMANDS[args.command](args, sink)
    finally:
        if close_sink:
            sink.close()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
