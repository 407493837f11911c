"""Reachability scan: every function in ``src/repro`` must be run by an entry point.

    PYTHONPATH=src python tests/reachability.py

Runs each entry point in a fresh interpreter under ``sys.setprofile`` and
``threading.setprofile`` and records the ``(co_filename, co_firstlineno)``
of every ``src/repro`` code object that runs.  The entry points are every
CLI subcommand on every shipped topology, workload, fault plan and sweep
preset; a spec-file sweep, a ``--profile`` sweep and a pool sweep (the
other sweeps use ``--backend serial``, because a forked worker's calls
never reach its parent); ``report``, ``compare``, ``timeline`` and
``analyze --html`` with each ``--plots`` backend; every example; and one
untraced and one traced pass of each perfbench workload, driven through
``perfbench/run.py``'s ``set_up`` and ``spans.install``.

A ``def`` that ``ast`` finds in ``src/repro`` is reached when a code
object starting at its ``def`` line or at its first decorator's line ran.
The scan exits 1 when an unreached function is not in :data:`ALLOWED`,
or when an :data:`ALLOWED` entry is reached or names no function.  It
takes about a minute on 2 vCPUs and is not part of the test suite.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
PERFBENCH = ROOT / "perfbench"

ITEM_12_OPS = "ROADMAP items 2 and 12: the race search issues NC-P pushes and explicit evicts"
ITEM_12_TRACE = "ROADMAP item 12: the coherence checker replaces or absorbs ProtocolTrace"
ITEM_15 = "ROADMAP item 15 rebuilds Histogram as a counting histogram"

#: Functions no entry point runs, each kept for the reason given.
ALLOWED: Dict[str, str] = {
    # Open items' carve-outs.
    "repro.cxl.dcoh.Dcoh.nc_push": ITEM_12_OPS,
    "repro.cxl.dcoh.Dcoh.nc_push.at_host": ITEM_12_OPS,
    "repro.cxl.dcoh.Dcoh.nc_push.pushed": ITEM_12_OPS,
    "repro.cxl.dcoh.Dcoh.evict": ITEM_12_OPS,
    "repro.cxl.dcoh.Dcoh.evict.at_host": ITEM_12_OPS,
    "repro.cxl.dcoh.Dcoh.evict.back": ITEM_12_OPS,
    "repro.cxl.dcoh.Dcoh.evict.host_done": ITEM_12_OPS,
    "repro.cxl.dcoh.Dcoh._cross_to_host": ITEM_12_OPS,
    "repro.cache.hmc.HostMemoryCache.invalidate": ITEM_12_OPS,
    "repro.cache.llc.SharedLLC._nc_push": ITEM_12_OPS,
    "repro.cache.llc.SharedLLC._clean_evict": ITEM_12_OPS,
    "repro.cache.llc.SharedLLC._back_invalidate":
        "ROADMAP item 2 writes forwarded dirty data home here",
    "repro.cache.llc.SharedLLC._record": ITEM_12_TRACE,
    "repro.cache.messages.ProtocolTrace.record": ITEM_12_TRACE,
    "repro.cache.messages.ProtocolTrace.types": ITEM_12_TRACE,
    "repro.cache.messages.ProtocolTrace.for_addr": ITEM_12_TRACE,
    "repro.cache.messages.ProtocolTrace.clear": ITEM_12_TRACE,
    "repro.cache.messages.ProtocolTrace.__iter__": ITEM_12_TRACE,
    "repro.cache.messages.ProtocolTrace.render": ITEM_12_TRACE,
    "repro.cache.messages.NullProtocolTrace.record": ITEM_12_TRACE,
    "repro.cache.messages.CoherenceMessage.__str__": ITEM_12_TRACE,
    "repro.sim.stats.Histogram.__len__": ITEM_15,
    "repro.sim.stats.Histogram.add": ITEM_15,
    "repro.sim.stats.Histogram.min": ITEM_15,
    "repro.sim.stats.Histogram.max": ITEM_15,
    "repro.sim.stats.Histogram.mean": ITEM_15,
    "repro.sim.stats.Histogram.stddev": ITEM_15,
    "repro.sim.stats.Histogram.p99": ITEM_15,
    "repro.sim.stats.Histogram.p999": ITEM_15,
    "repro.sim.stats.Histogram.summary": ITEM_15,
    "repro.interconnect.noc.NocTopology.mesh_distance_ps":
        "ROADMAP item 17a fits fig. 12's node distances to this mesh model",
    # Names outside src/ depend on.
    "repro.experiments.store.ResultStore.append_many":
        "perfbench/spans.py patches it by name; deleting it breaks the traced sweep run",
    "repro.experiments.runner._worker": "runs only in forked pool workers",
    "repro.experiments.store.ResultStore.load":
        "CI's sweep-smoke step calls it to compare backends",
    "repro.experiments.store.LoadResult.__init__": "built only by ResultStore.load",
    # Error paths on outside input.
    "repro.faults.plan.FaultEvent.__post_init__.fail": "error path: a malformed fault event",
    "repro.faults.plan.FaultPlan.from_dict.fail": "error path: a malformed fault plan",
    "repro.system.topology.Topology.from_dict.fail": "error path: a malformed topology file",
    "repro.workloads.trace.parse_trace.fail": "error path: a malformed trace file",
    "repro.mem.address.AddressRange.__str__":
        "error path: MemoryInterface.attach's overlap error prints the ranges",
    "repro.experiments.exec.locks.FileLock._is_stale":
        "error path: a lock left behind by a crashed scheduler",
    "repro.workloads.driver._FaultedLsuChain._describe":
        "error path: names the op a strict-mode fault plan stops",
    # Accessors and helpers a remaining test asserts with.
    "repro.cache.array.CacheArray.blocks": "tests/test_cache_array.py, test_nic_rao.py",
    "repro.cache.array.CacheArray.hit_rate": "tests/test_cache_array.py",
    "repro.cache.array.CacheArray.occupancy": "tests/test_cache_array.py, test_nic_rao.py",
    "repro.cache.block.MesiState.dirty": "tests/test_cache_mesi.py",
    "repro.cache.block.MesiState.readable": "tests/test_cache_mesi.py",
    "repro.cache.hierarchy.HierarchicalDomain.access":
        "tests/test_cxl_switch_hierarchy.py and the hierarchical-coherence ablation "
        "benchmark drive the domain one op at a time",
    "repro.cache.hierarchy.HierarchicalDomain.flat_equivalent_messages":
        "tests/test_cxl_switch_hierarchy.py and the ablation benchmark",
    "repro.cache.hierarchy.HierarchicalDomain.total_fabric_messages":
        "tests/test_cxl_switch_hierarchy.py and the ablation benchmark",
    "repro.cache.llc.SharedLLC.directory_entry": "tests/test_cache_llc.py",
    "repro.cache.llc.SharedLLC.holds": "tests/test_cache_llc.py, test_cxl_dcoh.py",
    "repro.cache.mesi.rebuild_table":
        "tests/test_cache_mesi.py checks the flat table against the transition rules",
    "repro.config.system.DramParams.row_conflict_ps": "tests/test_mem_dram.py",
    "repro.config.system.SystemConfig.replace":
        "tests/test_config.py and the ablation benchmarks vary one parameter with it",
    "repro.core.cohet.CohetSystem.driver": "tests/test_kernel_driver_fabric.py",
    "repro.core.runtime.CommandQueue.idle": "tests/test_core_runtime.py",
    "repro.core.runtime.KernelContext.read_bytes": "tests/test_core_runtime.py",
    "repro.core.runtime.KernelContext.write_bytes": "tests/test_integration.py",
    "repro.core.unified_memory.CohetProcess.allocation_size":
        "tests/test_core_unified_memory.py",
    "repro.core.unified_memory.CohetProcess.mmap": "tests/test_cxl_io.py",
    "repro.cxl.device.CxlDevice.supports_cache": "tests/test_cxl_mem_device.py",
    "repro.cxl.io.CxlIoPort.is_mapped": "tests/test_cxl_io.py",
    "repro.cxl.switch.SwitchFabric.hop_count": "tests/test_cxl_switch_hierarchy.py",
    "repro.cxl.switch.SwitchFabric.latency_ps": "tests/test_cxl_switch_hierarchy.py",
    "repro.cxl.switch.SwitchFabric.switches": "tests/test_core_supernode.py",
    "repro.cxl.transactions.DcohResult.mem_hit":
        "tests/test_cxl_dcoh.py and the fig. 13/15 benchmarks",
    "repro.experiments.exec.locks.FileLock.held": "tests/test_distributed_exec.py",
    "repro.experiments.exec.locks.FileLock.holder": "tests/test_distributed_exec.py",
    "repro.experiments.runner.SweepOutcome.ok": "tests/test_experiments_subsystem.py",
    "repro.experiments.stats.MannWhitneyResult.u": "tests/test_stats.py",
    "repro.experiments.stats.a12": "tests/test_stats.py",
    "repro.experiments.stats.bootstrap_ci": "tests/test_stats.py",
    "repro.experiments.stats.holm_reject": "tests/test_stats.py",
    "repro.experiments.store.ResultStore.query": "tests/test_experiments_subsystem.py",
    "repro.faults.plan.FaultEvent.to_dict": "tests/test_faults.py round-trips plans",
    "repro.faults.plan.FaultPlan.to_dict": "tests/test_faults.py round-trips plans",
    "repro.kernel.fabric.FabricManager.free_xpus": "tests/test_kernel_driver_fabric.py",
    "repro.kernel.hmm.Hmm.resident_by_node": "tests/test_kernel_ats_hmm.py",
    "repro.kernel.page_table.UnifiedPageTable.entries": "used by Hmm.resident_by_node",
    "repro.mem.address.AddressRange.offset": "tests/test_mem_address.py",
    "repro.mem.address.Interleaver.map":
        "tests/test_mem_controller.py checks MemoryController.access's inlined "
        "routing against it",
    "repro.mem.address.Interleaver.unmap":
        "tests/test_properties.py checks that Interleaver.map is a bijection",
    "repro.mem.address.line_offset": "tests/test_mem_address.py",
    "repro.mem.controller.MemoryController.reset": "tests/test_mem_controller.py",
    "repro.mem.dram.DramBankModel.bank_of": "tests/test_mem_dram.py",
    "repro.mem.dram.DramBankModel.reset": "tests/test_mem_dram.py",
    "repro.mem.interface.MemoryInterface.region": "tests/test_mem_interface.py",
    "repro.mem.interface.MemoryInterface.target_of": "tests/test_mem_interface.py",
    "repro.mem.interface.MemoryInterface.targets": "tests/test_integration.py",
    "repro.nic.base.HostValues.snapshot":
        "tests/test_nic_rao.py compares the two RAO NICs' values with it",
    "repro.nic.prefetcher.MultiStridePrefetcher.reset": "tests/test_nic_prefetcher.py",
    "repro.nic.prefetcher.PrefetchBuffer.outstanding": "tests/test_nic_prefetcher.py",
    "repro.rao.circustent.CircusTentWorkload.__len__": "tests/test_rao.py",
    "repro.rpc.hyperprotobench.BenchWorkload.__len__": "tests/test_rpc_workloads.py",
    "repro.rpc.layout.ObjectLayout.count": "tests/test_rpc_repeated.py",
    "repro.rpc.message.message_stats":
        "tests/test_rpc_message.py, test_rpc_repeated.py count fields with it",
    "repro.rpc.rpcnic.PipelineResult.mean_ps": "tests/test_rpc_workloads.py",
    "repro.system.topology.Topology.node": "tests/test_topology_serialization.py",
}


# -- entry points ------------------------------------------------------
def entry_points(tmp: Path) -> List[List[Tuple[str, ...]]]:
    """Stages of entry points; a stage may read what earlier ones wrote.

    Each entry is ``(kind, *args)``: ``("cli", argv...)``,
    ``("example", path)`` or ``("perfbench", workload, trace)``.
    """
    sys.path.insert(0, str(SRC))
    from repro.experiments import PRESETS
    from repro.faults import FAULT_PLANS
    from repro.harness.experiments import EXPERIMENTS, PAPER_EXPERIMENT_IDS
    from repro.system import TOPOLOGIES
    from repro.workloads import WORKLOADS

    layouts = sorted(str(p) for p in (ROOT / "examples" / "topologies").glob("*.json"))
    plans = sorted(str(p) for p in (ROOT / "examples" / "faults").glob("*.json"))
    spec_file = tmp / "spec.json"
    spec_file.write_text(json.dumps({
        "name": "spec-file",
        "experiments": [{"experiment": "table1"}, {"experiment": "fig4"}],
    }))
    runs = tmp / "runs"
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())

    first: List[Tuple[str, ...]] = [
        ("cli", "list"),
        ("cli", "run", "--list"),
        ("cli", "info"),
        ("cli", "run", "all", "--out", str(tmp / "run_all.txt")),
        ("cli", "run", "all", "--profile"),
        *[("cli", "run", name) for name in EXPERIMENTS if name not in PAPER_EXPERIMENT_IDS],
        ("cli", "topology", "list"),
        *[("cli", "topology", action, name)
          for name in TOPOLOGIES.names() for action in ("show", "dump")],
        ("cli", "topology", "dump", "fanout-2", "--out", str(tmp / "fanout-2.json")),
        ("cli", "topology", "validate", *layouts),
        *[("cli", "topology", "load", path) for path in layouts],
        ("cli", "workload", "list"),
        *[("cli", "workload", "show", name) for name in WORKLOADS.names()],
        *[("cli", "workload", "record", name, "--seed", "7",
           "--out", str(tmp / f"{name}.jsonl")) for name in WORKLOADS.names()],
        ("cli", "workload", "replay", "mixed(64)", "--topology", "fanout-2",
         "--streams", "2"),
        ("cli", "fault", "list"),
        *[("cli", "fault", "show", name) for name in FAULT_PLANS.names()],
        ("cli", "fault", "validate", *plans),
        *[("cli", "fault", "show", path) for path in plans],
        *[("cli", "sweep", "--preset", name, "--backend", "serial",
           "--out", str(runs / name)) for name in sorted(PRESETS)],
        ("cli", "sweep", str(spec_file), "--backend", "serial",
         "--out", str(runs / "spec-file")),
        ("cli", "sweep", "--preset", "quick", "--backend", "serial", "--profile",
         "--out", str(runs / "profiled")),
        ("cli", "sweep", "--preset", "quick", "--jobs", "2", "--out", str(runs / "pool")),
        *[("example", str(path)) for path in sorted((ROOT / "examples").glob("*.py"))],
        *[("perfbench", workload["name"], trace_flag)
          for workload in benchmark["workloads"] for trace_flag in ("0", "1")],
    ]
    second: List[Tuple[str, ...]] = [
        ("cli", "workload", "replay", str(tmp / "mixed.jsonl"), "--topology",
         "fanout-2", "--streams", "2"),
        *[("cli", "report", str(runs / name))
          for name in (*sorted(PRESETS), "spec-file", "profiled", "pool")],
        ("cli", "compare", str(runs / "quick"), str(runs / "pool")),
        ("cli", "timeline", str(runs / "pool")),
        ("cli", "analyze", str(runs / "quick")),
        *[("cli", "analyze", str(runs / "significance"), "--plots", backend,
           "--html", str(tmp / f"report-{backend}.html"))
          for backend in ("svg", "matplotlib", "none")],
    ]
    return [first, second]


# -- the child: run one entry point under the profiler ----------------
def _run_entry(kind: str, args: Sequence[str], tmp: Path) -> int:
    if kind == "cli":
        from repro.cli import main

        with open(os.devnull, "w") as sink:
            stdout, sys.stdout = sys.stdout, sink
            try:
                return main(list(args))
            finally:
                sys.stdout = stdout
    if kind == "example":
        import runpy

        with open(os.devnull, "w") as sink:
            stdout, sys.stdout = sys.stdout, sink
            try:
                runpy.run_path(args[0], run_name="__main__")
            finally:
                sys.stdout = stdout
        return 0
    workload, traced = args
    sys.path.insert(0, str(PERFBENCH))
    import run as bench  # perfbench/run.py
    import spans

    bench.WORK_ROOT = tmp / "perfbench"
    options = bench.parse_args(["--workload", workload, "--trace", traced])
    with open(os.devnull, "w") as sink:
        stdout, sys.stdout = sys.stdout, sink
        try:
            work, warm_up, _ = bench.set_up(options)
            if traced == "1":
                tracer = spans.Tracer()
                patches = spans.install(tracer)
                try:
                    tracer.start_pass()
                    result = work.run_pass()
                    bench.layer_metrics(tracer, result)
                finally:
                    patches.remove()
            else:
                result = work.run_pass()
        finally:
            sys.stdout = stdout
    return 0 if result.correct and not warm_up.wrong else 1


def child(out: str, kind: str, *args: str) -> None:
    """Run one entry point; write its exit code and reached code objects."""
    codes: Dict[int, object] = {}

    def record(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            codes[id(code)] = code

    sys.path.insert(0, str(SRC))
    threading.setprofile(record)
    sys.setprofile(record)
    try:
        status = _run_entry(kind, args, Path(out).parent)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    prefix = str(PACKAGE) + os.sep
    reached = sorted({
        (os.path.relpath(os.path.realpath(code.co_filename), SRC), code.co_firstlineno)
        for code in codes.values()
        if os.path.realpath(code.co_filename).startswith(prefix)
    })
    Path(out).write_text(json.dumps({"status": status, "reached": reached}))


# -- the parent: the functions and the comparison ---------------------
def definitions() -> Dict[str, List[Tuple[str, Set[int]]]]:
    """Qualified name -> ``(file, {def line, first decorator line})`` per def."""
    found: Dict[str, List[Tuple[str, Set[int]]]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = str(path.relative_to(SRC))
        module = rel[:-3].replace(os.sep, ".")
        if module.endswith(".__init__"):
            module = module[: -len(".__init__")]

        def visit(node, prefix):
            for item in ast.iter_child_nodes(node):
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    lines = {item.lineno}
                    if item.decorator_list:
                        lines.add(item.decorator_list[0].lineno)
                    name = f"{prefix}.{item.name}"
                    found.setdefault(name, []).append((rel, lines))
                    visit(item, name)
                elif isinstance(item, ast.ClassDef):
                    visit(item, f"{prefix}.{item.name}")
                else:
                    visit(item, prefix)

        visit(ast.parse(path.read_text(), filename=str(path)), module)
    return found


def scan(workers: int) -> Tuple[Set[Tuple[str, int]], List[str]]:
    """Run every entry point; return what ran and the entries that failed."""
    reached: Set[Tuple[str, int]] = set()
    failures: List[str] = []
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    with tempfile.TemporaryDirectory(prefix="reachability-") as name:
        tmp = Path(name)
        stages = entry_points(tmp)
        counter = iter(range(sum(map(len, stages))))

        def run(entry: Tuple[str, ...]) -> None:
            out = tmp / f"entry-{next(counter)}.json"
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--child",
                 str(out), *entry],
                cwd=tmp, env=env, capture_output=True, text=True, timeout=900,
            )
            label = " ".join(entry)
            if done.returncode != 0 or not out.is_file():
                failures.append(f"{label}: exit {done.returncode}\n{done.stderr[-2000:]}")
                return
            result = json.loads(out.read_text())
            # ``--plots matplotlib`` exits 2 with a one-line error where
            # matplotlib is not installed; every other entry must exit 0.
            allowed = (0, 2) if "matplotlib" in entry else (0,)
            if result["status"] not in allowed:
                failures.append(f"{label}: returned {result['status']}")
            reached.update(map(tuple, result["reached"]))

        with ThreadPoolExecutor(workers) as pool:
            for stage in stages:
                list(pool.map(run, stage))
    return reached, failures


def main(argv: Sequence[str]) -> int:
    if argv[:1] == ["--child"]:
        child(*argv[1:])
        return 0
    reached, failures = scan(workers=max(1, min(4, os.cpu_count() or 1)))
    for failure in failures:
        print(f"entry point failed: {failure}")
    found = definitions()
    unreached = {
        name for name, defs in found.items()
        if any(not any((rel, line) in reached for line in lines) for rel, lines in defs)
    }
    total = sum(map(len, found.values()))
    print(f"{len(unreached)} of {len(found)} function names unreached "
          f"({total} defs in {PACKAGE.relative_to(ROOT)})")
    unexpected = sorted(unreached - ALLOWED.keys())
    stale = sorted(name for name in ALLOWED if name not in unreached)
    for name in unexpected:
        rel, lines = found[name][0]
        print(f"unreached, not allowed: {name} ({rel}:{min(lines)})")
    for name in stale:
        state = "reached" if name in found else "gone"
        print(f"allowed but {state}: {name}")
    return 1 if failures or unexpected or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
