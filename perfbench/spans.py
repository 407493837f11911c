"""Span tracing for the traced benchmark run, installed from outside ``src/``.

:func:`install` wraps the public entry point of every layer the benchmark
times and returns a handle whose :meth:`Installed.remove` puts every
original back, so the untraced passes run the program exactly as shipped.

Each wrapped call records a span ``[name, start, end, parent]`` in memory;
self time is a span's duration minus the spans (and hot-leaf calls) it
encloses.  ``Supernode.coherent_access`` runs ~50k times per driver call,
so it is a *hot leaf*: its calls are summed into a count and a total and
charged to the enclosing span rather than stored one by one.

A function imported by name into another module is patched in every
``repro`` module that holds it, because callers look it up there
(``repro.harness.experiments`` imports ``run_rpc_comparison`` by name).
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

perf_counter = time.perf_counter


class Tracer:
    """In-memory span recorder plus the counters read from built systems."""

    def __init__(self) -> None:
        self.spans: List[list] = []  # [name, start, end, parent, hot_s]
        self._stack: List[int] = []
        self.hot: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        self.counters: Dict[str, float] = defaultdict(float)
        self.systems: List[object] = []
        self.trace_len_peak = 0
        self.pass_start = 0

    # -- recording -----------------------------------------------------
    def wrap(self, name: str, fn: Callable, name_of: Optional[Callable] = None,
             on_close: Optional[Callable] = None) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            label = name_of(args, kwargs) if name_of else name
            record = [label, perf_counter(), 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(record)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                record[2] = perf_counter()
                stack.pop()
                if on_close is not None:
                    on_close(args, result)

        traced.__wrapped__ = fn
        return traced

    def wrap_hot(self, name: str, fn: Callable) -> Callable:
        spans, stack, agg = self.spans, self._stack, self.hot[name]

        def traced(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                agg[0] += 1
                agg[1] += elapsed
                if stack:
                    spans[stack[-1]][4] += elapsed

        traced.__wrapped__ = fn
        return traced

    def wrap_sim_run(self, fn: Callable, protocol_error: type) -> Callable:
        """``Simulator.run`` also counts events and ProtocolErrors raised."""
        traced_run = self.wrap("sim.run", fn)
        counters = self.counters

        def run(sim, *args, **kwargs):
            before = sim.executed
            try:
                return traced_run(sim, *args, **kwargs)
            except protocol_error:
                counters["cache.protocol_errors"] += 1
                raise
            finally:
                counters["sim.events"] += sim.executed - before

        run.__wrapped__ = fn
        return run

    # -- counters from built systems ----------------------------------
    def harvest(self) -> None:
        """Read the counters of every system built since the last harvest."""
        from repro.core.supernode import Supernode

        c = self.counters
        for system in self.systems:
            llc = system.llc
            if llc is not None:
                c["cache.llc.requests"] += llc.requests
                c["cache.llc.snoops_sent"] += llc.snoops_sent
                c["cache.llc.writebacks"] += llc.writebacks
                c["llc.hits"] += llc.array.hits
                c["llc.misses"] += llc.array.misses
                self.trace_len_peak = max(self.trace_len_peak, len(llc.trace))
            seen = set()
            for node in system.nodes.values():
                dcoh, hmc = getattr(node, "dcoh", None), getattr(node, "hmc", None)
                if dcoh is not None and hmc is not None and id(dcoh) not in seen:
                    seen.add(id(dcoh))
                    c["cxl.dcoh.reads"] += dcoh.reads
                    c["cxl.dcoh.writes"] += dcoh.writes
                    c["cxl.dcoh.evictions_issued"] += dcoh.evictions_issued
                    c["hmc.hits"] += hmc.array.hits
                    c["hmc.misses"] += hmc.array.misses
                    c["cache.hmc.snoops_received"] += hmc.snoops_received
                if isinstance(node, Supernode):
                    for host in node.hosts.values():
                        c["core.supernode.remote_accesses"] += host.remote_accesses
                    for agent in node.domain.locals.values():
                        c["supernode.local_hits"] += agent.local_hits
                        c["supernode.global_requests"] += agent.global_requests
        self.systems.clear()

    # -- reduction -----------------------------------------------------
    def self_times(self) -> Dict[str, List[float]]:
        """``name -> [count, inclusive_s, self_s]`` over this pass's spans."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _hot in spans[self.pass_start:]:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for index in range(self.pass_start, len(spans)):
            name, start, end, _parent, hot = spans[index]
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child[index] - hot
        return out

    def start_pass(self) -> None:
        """Start a new pass; spans of earlier passes stay for the dump."""
        self.counters.clear()
        for agg in self.hot.values():  # wrap_hot holds these lists
            agg[:] = [0, 0.0]
        self.trace_len_peak = 0
        self.pass_start = len(self.spans)

    def dump(self, path) -> None:
        """Write every span as Chrome trace-event JSON (opens in Perfetto)."""
        origin = self.spans[0][1] if self.spans else 0.0
        events = [
            {"name": name, "ph": "X", "pid": 1, "tid": 1,
             "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
             "args": {"parent": parent, "hot_s": hot}}
            for name, start, end, parent, hot in self.spans
        ]
        path.write_text(json.dumps({"traceEvents": events}))


class Installed:
    """Patched attributes, restorable in reverse order."""

    def __init__(self) -> None:
        self._undo: List[tuple] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def everywhere(self, original: Callable, replacement: Callable) -> None:
        """Replace ``original`` in every loaded ``repro`` module holding it."""
        for name, module in list(sys.modules.items()):
            if name == "repro" or name.startswith("repro."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self.set(module, attr, replacement)

    def remove(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


TESTBENCH_METHODS = (
    "latency_hmc_hit", "latency_llc_hit", "latency_mem_hit",
    "bandwidth_hmc_hit", "bandwidth_llc_hit", "bandwidth_mem_hit",
    "dma_latency", "dma_bandwidth",
)


def install(tracer: Tracer) -> Installed:
    """Wrap every layer entry point the per-layer table reads."""
    from repro.cache.mesi import ProtocolError
    from repro.calibration.microbench import CxlTestbench
    from repro.core.supernode import Supernode
    from repro.experiments import report, runner
    from repro.experiments.spec import SweepSpec
    from repro.experiments.store import ResultStore
    from repro.harness import experiments, tables
    from repro.obs.telemetry import TelemetryWriter
    from repro.rao import harness as rao_harness
    from repro.rpc import harness as rpc_harness
    from repro.rpc import hyperprotobench
    from repro.sim.engine import Simulator
    from repro.system.builder import SystemBuilder
    from repro.workloads.base import Workload
    from repro.workloads.driver import WorkloadDriver

    patches = Installed()
    wrap = tracer.wrap

    def harvest(_args, _result):
        tracer.harvest()

    def keep_system(_args, system):
        if system is not None:
            tracer.systems.append(system)

    patches.set(Simulator, "run", tracer.wrap_sim_run(Simulator.run, ProtocolError))
    patches.set(SystemBuilder, "build",
                wrap("system.build", SystemBuilder.build, on_close=keep_system))
    patches.set(Workload, "batch", wrap("workloads.batch", Workload.batch))
    patches.set(WorkloadDriver, "run",
                wrap("workloads.drive", WorkloadDriver.run, on_close=harvest))
    patches.set(Supernode, "coherent_access",
                tracer.wrap_hot("core.supernode.access", Supernode.coherent_access))
    for method in TESTBENCH_METHODS:
        patches.set(CxlTestbench, method,
                    wrap("calibration.testbench", getattr(CxlTestbench, method)))
    patches.set(SweepSpec, "expand", wrap("experiments.expand", SweepSpec.expand))
    for method in ("append", "append_many"):
        patches.set(ResultStore, method,
                    wrap("experiments.store_append", getattr(ResultStore, method)))
    patches.set(TelemetryWriter, "emit", wrap("obs.telemetry", TelemetryWriter.emit))
    # analyze_run only constructs the lazily computed analysis.
    patches.set(report.RunAnalysis, "markdown",
                wrap("experiments.analyze", report.RunAnalysis.markdown))

    functions = [
        (hyperprotobench.make_bench, wrap("rpc.make_bench", hyperprotobench.make_bench)),
        (rpc_harness.run_rpc_comparison,
         wrap("rpc.comparison", rpc_harness.run_rpc_comparison)),
        (rao_harness.run_rao_comparison,
         wrap("rao.comparison", rao_harness.run_rao_comparison)),
        (tables.render_series, wrap("harness.render", tables.render_series)),
        (tables.render_table, wrap("harness.render", tables.render_table)),
        (experiments.run_experiment,
         wrap("harness.experiment", experiments.run_experiment,
              name_of=lambda args, kwargs: f"harness.{args[0] if args else kwargs['name']}",
              on_close=harvest)),
        (report.analyze_run, wrap("experiments.analyze", report.analyze_run)),
        (runner.run_sweep, wrap("experiments.execute", runner.run_sweep)),
    ]
    for original, replacement in functions:
        patches.everywhere(original, replacement)
    return patches
