"""Performance benchmark harness for the simulator core (``repro bench``).

Runs a fixed set of hot-path workloads — a raw event-calendar drain, a
cancellation-heavy drain, a cache-array access mix, an end-to-end RPC
comparison, and the ``quick`` sweep preset — and reports wall-clock
time and events-per-second for each.  ``repro bench`` writes the
payload to ``BENCH_engine.json`` so the performance trajectory can be
tracked PR-over-PR (compare the same machine only; absolute numbers are
not portable).

Workloads are deterministic: address and delay streams come from a
seeded ``random.Random``, so two runs on the same interpreter execute
identical event sequences and differences in the report are pure
wall-clock noise.
"""

from __future__ import annotations

import json
import os
import platform
import random
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro import __version__
from repro.cache.array import CacheArray
from repro.cache.block import MesiState
from repro.sim.engine import Simulator

DEFAULT_OUT = "BENCH_engine.json"

Progress = Optional[Callable[[str], None]]


def _timed(fn: Callable[[], Dict[str, Any]]) -> Dict[str, Any]:
    start = time.perf_counter()
    payload = fn()
    payload["wall_s"] = round(time.perf_counter() - start, 6)
    return payload


def bench_engine_drain(events: int = 300_000, chains: int = 64, seed: int = 7) -> Dict[str, Any]:
    """Drain ``events`` events from ``chains`` self-rescheduling timers.

    Exercises the tuple-heap calendar and the trusted fast path; no
    component or cache logic in the loop.
    """
    rng = random.Random(seed)
    sim = Simulator()
    budget = events
    counter = [0]

    def tick(delay: int) -> None:
        counter[0] += 1
        if counter[0] < budget:
            sim.schedule_after(delay, tick, (1 + (delay * 1103515245 + 12345) % 997,))

    def run() -> Dict[str, Any]:
        for _ in range(chains):
            sim.schedule_after(rng.randrange(1, 1000), tick, (rng.randrange(1, 997),))
        sim.run()
        return {"events": sim.executed}

    result = _timed(run)
    result["events_per_sec"] = round(result["events"] / max(result["wall_s"], 1e-9))
    return result


def bench_engine_cancel(events: int = 100_000, seed: int = 11) -> Dict[str, Any]:
    """Schedule/cancel churn: half the calendar is lazily deleted.

    Exercises :meth:`Event.cancel`, the cancel counter and heap
    compaction.
    """
    rng = random.Random(seed)
    sim = Simulator()
    fired = [0]

    def noop() -> None:
        fired[0] += 1

    def run() -> Dict[str, Any]:
        handles = []
        for i in range(events):
            handles.append(sim.schedule(rng.randrange(1, 1_000_000), noop))
            if i % 2:
                handles[rng.randrange(0, len(handles))].cancel()
        sim.run()
        return {"events": sim.executed, "scheduled": events}

    result = _timed(run)
    result["events_per_sec"] = round(result["events"] / max(result["wall_s"], 1e-9))
    return result


#: The obs layer's zero-overhead-when-off contract: an attached-but-idle
#: registry may slow the event drain by at most this fraction ...
OBS_OVERHEAD_THRESHOLD = 0.02
#: ... or by at most this many seconds.  The two timed regions run
#: identical instructions, so sub-millisecond gaps are timer/scheduler
#: noise, not a contract regression — the absolute slack keeps short
#: quick-scale drains from failing under a loaded machine where 2% of
#: the wall time is microseconds.
OBS_OVERHEAD_SLACK_S = 0.002


def _obs_overhead_ok(plain_s: float, observed_s: float) -> bool:
    gap = observed_s - plain_s
    return gap / plain_s <= OBS_OVERHEAD_THRESHOLD or gap <= OBS_OVERHEAD_SLACK_S


def bench_obs_overhead(
    events: int = 200_000, chains: int = 64, seed: int = 23
) -> Dict[str, Any]:
    """Measure the disabled-instrumentation overhead of the obs layer.

    Times the same deterministic event drain twice: once registry-free,
    once with a :class:`~repro.obs.metrics.MetricsRegistry` attached as
    pull-based probes (no snapshots inside the timed region — exactly
    the disabled-instrumentation configuration every normal run uses).
    The two regions execute identical hot-loop instructions by design,
    so any measured gap is either noise or a regression of the
    zero-overhead-when-off contract.

    Keeps the minimum of several interleaved rounds — interleaving plus
    min-of-rounds makes the comparison robust to scheduler noise — and
    grants extra rounds while the gap breaks the contract.  The
    verdict itself belongs to ``repro bench --check``
    (:func:`obs_overhead_failure`), so a noisy sample never fails a
    plain ``repro bench`` run.
    """
    from repro.obs.metrics import MetricsRegistry

    def make_sim() -> Simulator:
        rng = random.Random(seed)
        sim = Simulator()
        counter = [0]

        def tick(delay: int) -> None:
            counter[0] += 1
            if counter[0] < events:
                sim.schedule_after(
                    delay, tick, (1 + (delay * 1103515245 + 12345) % 997,)
                )

        for _ in range(chains):
            sim.schedule_after(rng.randrange(1, 1000), tick, (rng.randrange(1, 997),))
        return sim

    def drain_plain() -> float:
        sim = make_sim()
        start = time.perf_counter()
        sim.run()
        return time.perf_counter() - start

    def drain_observed() -> float:
        sim = make_sim()
        registry = MetricsRegistry("bench")
        registry.probe("engine.events", lambda: sim.executed)
        registry.probe("engine.pending", lambda: sim.pending)
        registry.probe("engine.now_ps", lambda: sim.now)
        start = time.perf_counter()
        sim.run()
        elapsed = time.perf_counter() - start
        # Observation happens outside the timed region, as in real runs
        # with instrumentation attached but snapshots idle.
        registry.snapshot(sim.now)
        return elapsed

    min_rounds, max_rounds = 3, 12

    def run() -> Dict[str, Any]:
        best_plain = best_observed = float("inf")
        rounds = 0
        while rounds < max_rounds:
            rounds += 1
            # Interleave so slow system-wide phases hit both regions.
            best_plain = min(best_plain, drain_plain())
            best_observed = min(best_observed, drain_observed())
            if rounds >= min_rounds and _obs_overhead_ok(best_plain, best_observed):
                break
        overhead = (best_observed - best_plain) / best_plain
        return {
            "events": events,
            "rounds": rounds,
            "plain_s": round(best_plain, 6),
            "observed_s": round(best_observed, 6),
            "overhead_frac": round(overhead, 4),
            "events_per_sec": round(events / max(best_plain, 1e-9)),
        }

    return _timed(run)


def bench_cache_array(ops: int = 300_000, seed: int = 13) -> Dict[str, Any]:
    """Mixed lookup/insert stream against an L1-sized array.

    Exercises shift-and-mask indexing, lazy set creation and LRU
    eviction under a working set ~4x the array capacity.
    """
    rng = random.Random(seed)
    array = CacheArray(size=48 * 1024, ways=12, name="bench-l1")
    lines = (48 * 1024 // 64) * 4
    addrs = [rng.randrange(0, lines) * 64 for _ in range(8192)]

    def run() -> Dict[str, Any]:
        n = len(addrs)
        for i in range(ops):
            addr = addrs[i % n]
            if array.lookup(addr) is None:
                array.insert(addr, MesiState.EXCLUSIVE)
        return {"ops": ops, "hit_rate": round(array.hit_rate, 4)}

    result = _timed(run)
    result["ops_per_sec"] = round(result["ops"] / max(result["wall_s"], 1e-9))
    return result


def bench_rpc(messages: int = 30) -> Dict[str, Any]:
    """One HyperProtoBench bench through all four RPC designs.

    Times input synthesis plus the analytic RpcNIC/CXL-NIC pipelines
    over real wire bytes; no discrete-event simulation runs.
    """
    from repro.config import fpga_system
    from repro.rpc.harness import run_rpc_comparison

    def run() -> Dict[str, Any]:
        comparisons = run_rpc_comparison(
            fpga_system(), benches=("Bench0",), messages=messages
        )
        comparison = comparisons["Bench0"]
        return {
            "messages": messages,
            "deser_speedup": round(comparison.deser_speedup, 4),
        }

    return _timed(run)


def bench_system_build(builds: int = 1000) -> Dict[str, Any]:
    """Construct the ``fanout-2`` system repeatedly via SystemBuilder.

    Tracks the cost of the declarative construction layer itself —
    topology instantiation, registry dispatch, host complex + two
    type-1 devices with LSUs — which sits on every harness's setup
    path.
    """
    from repro.config import fpga_system
    from repro.system import SystemBuilder

    config = fpga_system()

    def run() -> Dict[str, Any]:
        builder = SystemBuilder(config)
        nodes = 0
        for _ in range(builds):
            nodes += len(builder.build("fanout-2").nodes)
        return {"builds": builds, "nodes": nodes}

    result = _timed(run)
    result["builds_per_sec"] = round(result["builds"] / max(result["wall_s"], 1e-9))
    return result


def bench_topology_load(loads: int = 200) -> Dict[str, Any]:
    """Dump ``fanout-2`` to JSON once, then load+validate+build it in a loop.

    Tracks the data-driven construction path — JSON parse, schema
    validation, registry dispatch — that every file-based topology
    (``examples/topologies/``, ``repro topology load``) pays on top of
    the in-memory build measured by ``system_build``.
    """
    from repro.config import fpga_system
    from repro.system import (
        SystemBuilder,
        dump_topology,
        load_topology,
        topology_by_name,
    )

    config = fpga_system()

    def run() -> Dict[str, Any]:
        with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
            path = Path(tmp) / "fanout-2.json"
            dump_topology(topology_by_name("fanout-2"), path)
            builder = SystemBuilder(config)
            nodes = 0
            for _ in range(loads):
                nodes += len(builder.build(load_topology(path)).nodes)
        return {"loads": loads, "nodes": nodes}

    result = _timed(run)
    result["loads_per_sec"] = round(result["loads"] / max(result["wall_s"], 1e-9))
    return result


def bench_workload_gen(ops: int = 100_000, seed: int = 17) -> Dict[str, Any]:
    """Expand the built-in generators until ``ops`` operations exist.

    Tracks the workload layer's stream-generation throughput — ref
    parsing, registry dispatch, seeded expansion (including the Zipf
    CDF build and a phase composition) — which sits on the setup path
    of every workload-driven experiment and trace recording.
    """
    from repro.workloads import resolve_workload

    refs = (
        "sequential(4096)",
        "zipf(4096,1.2)",
        "pointer-chase(4096,512)",
        "rw-mix(4096,0.7)",
        "mixed(1024)",
    )

    def run() -> Dict[str, Any]:
        produced = 0
        rounds = 0
        while produced < ops:
            workload = resolve_workload(refs[rounds % len(refs)])
            produced += len(workload.ops(seed + rounds))
            rounds += 1
        return {"ops": produced, "rounds": rounds}

    result = _timed(run)
    result["ops_per_sec"] = round(result["ops"] / max(result["wall_s"], 1e-9))
    return result


def bench_workload_batch(ops: int = 200_000, seed: int = 19) -> Dict[str, Any]:
    """Vectorized workload hot paths vs their scalar equivalents.

    Measures columnar generation (``OpBatch`` expansion) against
    materializing the scalar op list, and the bulk
    :meth:`CacheArray.lookup_many` probe against a scalar ``lookup``
    loop over the same address column — asserting the aggregate hit
    counts agree.  ``ops_per_sec`` (the gated key) is the batch
    generation throughput.
    """
    from repro.workloads import resolve_workload

    workload = resolve_workload(f"uniform({ops},4096)")

    def run() -> Dict[str, Any]:
        start = time.perf_counter()
        batch = workload.batch(seed)
        batch_s = time.perf_counter() - start
        start = time.perf_counter()
        scalar_ops = batch.to_ops()
        scalar_s = time.perf_counter() - start

        array = CacheArray(size=48 * 1024, ways=12, name="bench-bulk")
        for addr in batch.addrs[: array.size // 64].tolist():
            array.insert(addr, MesiState.SHARED)
        probe = CacheArray(size=48 * 1024, ways=12, name="bench-scalar")
        for addr in batch.addrs[: probe.size // 64].tolist():
            probe.insert(addr, MesiState.SHARED)

        start = time.perf_counter()
        bulk_hits = array.lookup_many(batch.addrs)
        bulk_s = time.perf_counter() - start
        start = time.perf_counter()
        scalar_hits = sum(
            1 for addr in batch.addrs.tolist()
            if probe.lookup(addr) is not None
        )
        loop_s = time.perf_counter() - start
        if bulk_hits != scalar_hits or (array.hits, array.misses) != (
            probe.hits, probe.misses
        ):
            raise RuntimeError(
                "lookup_many disagrees with the scalar lookup loop"
            )
        return {
            "ops": len(scalar_ops),
            "batch_gen_s": round(batch_s, 6),
            "scalar_gen_s": round(scalar_s, 6),
            "gen_speedup": round(scalar_s / max(batch_s, 1e-9), 3),
            "bulk_probe_s": round(bulk_s, 6),
            "scalar_probe_s": round(loop_s, 6),
            "probe_speedup": round(loop_s / max(bulk_s, 1e-9), 3),
            "hit_rate": round(bulk_hits / max(len(scalar_ops), 1), 4),
            "ops_per_sec": round(ops / max(batch_s, 1e-9)),
            "probe_ops_per_sec": round(ops / max(bulk_s, 1e-9)),
        }

    return _timed(run)


def bench_result_store(records: int = 20_000) -> Dict[str, Any]:
    """Sharded store throughput: locked appends, then streaming reads.

    Appends ``records`` small results through the per-shard-locked
    write path with a small roll-over cap (so several shards exist),
    appends the same count again through the batched
    :meth:`ResultStore.append_many` path (one lock acquire + one write
    per drained batch — the queue worker's path), then aggregates with
    ``ok_hashes()`` (index fast path) and ``latest()`` (streaming
    record scan) — the exact paths a million-point sweep leans on.
    """
    from repro.experiments.store import ResultStore, StoredResult

    def make(i: int) -> "StoredResult":
        return StoredResult(
            spec_hash=f"h{i % 1000:05d}", experiment="bench",
            params={}, repeat=0, seed=i, status="ok",
            series={"v": float(i)},
        )

    def run() -> Dict[str, Any]:
        with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
            store = ResultStore(tmp, shard_max_bytes=256 * 1024)
            append_start = time.perf_counter()
            for i in range(records):
                store.append(make(i))
            append_s = time.perf_counter() - append_start
            scan_start = time.perf_counter()
            distinct = len(store.latest())
            ok = len(store.ok_hashes())
            scan_s = time.perf_counter() - scan_start
            shards = len(store.shard_paths())
        batch_size = 64
        with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
            batched = ResultStore(tmp, shard_max_bytes=256 * 1024)
            batch_start = time.perf_counter()
            for base in range(0, records, batch_size):
                batched.append_many(
                    [make(i) for i in range(base, min(base + batch_size, records))]
                )
            batch_s = time.perf_counter() - batch_start
        return {
            "records": records,
            "shards": shards,
            "distinct": distinct,
            "ok": ok,
            "append_s": round(append_s, 6),
            "scan_s": round(scan_s, 6),
            "appends_per_sec": round(records / max(append_s, 1e-9)),
            "batched_append_s": round(batch_s, 6),
            "batched_appends_per_sec": round(records / max(batch_s, 1e-9)),
            "batch_speedup": round(append_s / max(batch_s, 1e-9), 3),
        }

    return _timed(run)


def bench_sweep(jobs: int = 1) -> Dict[str, Any]:
    """The ``quick`` sweep preset end-to-end (the acceptance workload).

    Runs into a throwaway directory with the result cache disabled so
    every spec executes.  This is the number to compare PR-over-PR.
    """
    from repro.experiments import preset_sweep, run_sweep

    sweep = preset_sweep("quick")

    def run() -> Dict[str, Any]:
        with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
            outcome = run_sweep(sweep, Path(tmp) / "quick", jobs=jobs, force=True)
        if outcome.failed:
            raise RuntimeError(f"bench sweep had failures: {outcome.failed}")
        return {"specs": outcome.total, "jobs": jobs}

    return _timed(run)


#: Measurement repetitions per gated workload — each runs ``BEST_OF``
#: times and the fastest attempt is recorded.  Workloads are
#: deterministic, so the fastest run is the one least disturbed by
#: scheduler noise; without this, quick-size runs on a busy machine
#: swing far past the perf-gate threshold on wall-clock noise alone.
BEST_OF = 3


def _best_of(fn: Callable[[], Dict[str, Any]], key: str, runs: int = BEST_OF) -> Dict[str, Any]:
    """Run ``fn`` ``runs`` times, keep the attempt with the best ``key``."""
    best: Optional[Dict[str, Any]] = None
    for _ in range(max(runs, 1)):
        result = fn()
        if best is None or result[key] > best[key]:
            best = result
    assert best is not None
    return best


def run_bench(quick: bool = False, progress: Progress = None) -> Dict[str, Any]:
    """Run every workload; returns the JSON-ready payload.

    ``quick`` shrinks workload sizes for CI smoke runs.  Gated
    workloads (those reporting ``*_per_sec`` keys) record the best of
    :data:`BEST_OF` attempts so the perf gate compares peak throughput,
    not scheduler noise.
    """

    def note(line: str) -> None:
        if progress is not None:
            progress(line)

    scale = 0.1 if quick else 1.0
    workloads: Dict[str, Dict[str, Any]] = {}

    note("engine_drain ...")
    workloads["engine_drain"] = _best_of(
        lambda: bench_engine_drain(events=int(300_000 * scale) or 1),
        "events_per_sec",
    )
    note(f"engine_drain: {workloads['engine_drain']['events_per_sec']:,} events/s")

    note("engine_cancel ...")
    workloads["engine_cancel"] = _best_of(
        lambda: bench_engine_cancel(events=int(100_000 * scale) or 1),
        "events_per_sec",
    )
    note(f"engine_cancel: {workloads['engine_cancel']['events_per_sec']:,} events/s")

    note("obs_overhead ...")
    # Already internally best-of-N (interleaved rounds); no _best_of.
    # Floored so the timed region stays long enough for the overhead
    # ratio to be meaningful at quick scale.
    workloads["obs_overhead"] = bench_obs_overhead(
        events=max(int(200_000 * scale), 50_000)
    )
    note(
        f"obs_overhead: {workloads['obs_overhead']['overhead_frac']:+.1%} "
        f"({workloads['obs_overhead']['events_per_sec']:,} events/s)"
    )

    note("cache_array ...")
    workloads["cache_array"] = _best_of(
        lambda: bench_cache_array(ops=int(300_000 * scale) or 1),
        "ops_per_sec",
    )
    note(f"cache_array: {workloads['cache_array']['ops_per_sec']:,} ops/s")

    note("rpc ...")
    workloads["rpc"] = bench_rpc(messages=10 if quick else 30)
    note(f"rpc: {workloads['rpc']['wall_s']:.3f}s")

    note("system_build ...")
    workloads["system_build"] = _best_of(
        # Enough builds that the gate measures work, not timer noise.
        lambda: bench_system_build(builds=250 if quick else 1000),
        "builds_per_sec",
    )
    note(f"system_build: {workloads['system_build']['builds_per_sec']:,} builds/s")

    note("topology_load ...")
    workloads["topology_load"] = _best_of(
        lambda: bench_topology_load(loads=60 if quick else 200),
        "loads_per_sec",
    )
    note(f"topology_load: {workloads['topology_load']['loads_per_sec']:,} loads/s")

    note("workload_gen ...")
    workloads["workload_gen"] = _best_of(
        lambda: bench_workload_gen(ops=int(100_000 * scale) or 1),
        "ops_per_sec",
    )
    note(f"workload_gen: {workloads['workload_gen']['ops_per_sec']:,} ops/s")

    note("workload_batch ...")
    workloads["workload_batch"] = _best_of(
        lambda: bench_workload_batch(ops=int(200_000 * scale) or 1),
        "ops_per_sec",
    )
    note(f"workload_batch: {workloads['workload_batch']['ops_per_sec']:,} ops/s")

    note("result_store ...")
    workloads["result_store"] = _best_of(
        lambda: bench_result_store(records=int(20_000 * scale) or 1),
        "appends_per_sec",
    )
    note(f"result_store: {workloads['result_store']['appends_per_sec']:,} appends/s")

    note("sweep_quick ...")
    workloads["sweep_quick"] = bench_sweep()
    note(f"sweep_quick: {workloads['sweep_quick']['wall_s']:.3f}s")

    from repro.cache.mesi import fast_mode

    return {
        "schema": 2,
        "repro_version": __version__,
        "python": sys.version.split()[0],
        "quick": quick,
        "mesi_fast_mode": fast_mode(),
        "machine": machine_metadata(),
        "workloads": workloads,
    }


def machine_metadata() -> Dict[str, Any]:
    """CPU/jobs identity recorded with every payload.

    Perf-gate comparisons are apples-to-apples only between machines
    with the same shape; :func:`check_regression` refuses to gate when
    these fields differ.
    """
    from repro.experiments.runner import default_jobs

    return {
        "cpu_count": os.cpu_count() or 1,
        "jobs": default_jobs(),
        "platform": platform.platform(),
    }


#: Default throughput-regression threshold for ``repro bench --check``.
CHECK_THRESHOLD = 0.15


def machine_mismatch(
    current: Dict[str, Any], baseline: Dict[str, Any]
) -> Optional[str]:
    """Why these two payloads cannot be perf-gated against each other.

    Returns ``None`` when the comparison is valid, else a one-line
    explanation (missing metadata, differing CPU shape, differing
    quick/full sizes).
    """
    cur = current.get("machine")
    base = baseline.get("machine")
    if not isinstance(base, dict) or not isinstance(cur, dict):
        return "baseline or current payload has no machine metadata"
    for key in ("cpu_count", "jobs"):
        if cur.get(key) != base.get(key):
            return (
                f"machine {key} differs: baseline {base.get(key)!r} vs "
                f"current {cur.get(key)!r}"
            )
    if bool(current.get("quick")) != bool(baseline.get("quick")):
        return (
            f"workload sizes differ: baseline "
            f"{'quick' if baseline.get('quick') else 'full'} vs current "
            f"{'quick' if current.get('quick') else 'full'}"
        )
    return None


def check_regression(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    threshold: float = CHECK_THRESHOLD,
) -> Dict[str, Any]:
    """Compare every ``*_per_sec`` key of ``current`` against ``baseline``.

    Returns ``{"compared": [...], "regressions": [...]}`` where each
    entry is ``(workload, key, baseline, current, delta)`` and a
    regression is a throughput drop of more than ``threshold``
    (fractional).  Workloads/keys present on only one side are ignored,
    so the gate survives bench additions.
    """
    compared: List[Tuple[str, str, float, float, float]] = []
    regressions: List[Tuple[str, str, float, float, float]] = []
    for name, base_w in baseline.get("workloads", {}).items():
        cur_w = current.get("workloads", {}).get(name)
        if not isinstance(cur_w, dict) or not isinstance(base_w, dict):
            continue
        for key, base_v in base_w.items():
            if not key.endswith("_per_sec"):
                continue
            cur_v = cur_w.get(key)
            if not isinstance(base_v, (int, float)) or base_v <= 0:
                continue
            if not isinstance(cur_v, (int, float)):
                continue
            delta = (cur_v - base_v) / base_v
            entry = (name, key, float(base_v), float(cur_v), delta)
            compared.append(entry)
            if delta < -threshold:
                regressions.append(entry)
    return {"compared": compared, "regressions": regressions}


def obs_overhead_failure(payload: Dict[str, Any]) -> Optional[str]:
    """Why the payload's ``obs_overhead`` breaks its contract, else None.

    The verdict compares two regions of one run, so unlike the
    throughput gate it holds on any machine shape.  Payloads without
    the workload pass.
    """
    result = payload.get("workloads", {}).get("obs_overhead")
    if not isinstance(result, dict):
        return None
    plain, observed = result["plain_s"], result["observed_s"]
    if _obs_overhead_ok(plain, observed):
        return None
    return (
        f"disabled-instrumentation overhead {result['overhead_frac']:.1%} exceeds "
        f"{OBS_OVERHEAD_THRESHOLD:.0%} (plain {plain:.4f}s vs observed "
        f"{observed:.4f}s over {result['rounds']} rounds) — the obs "
        f"layer's zero-overhead-when-off contract regressed"
    )


def render_check(outcome: Dict[str, Any], threshold: float = CHECK_THRESHOLD) -> str:
    """Human-readable gate verdict for ``repro bench --check``."""
    lines = [
        f"perf gate: {len(outcome['compared'])} throughput keys compared "
        f"(threshold -{threshold:.0%})"
    ]
    for name, key, base_v, cur_v, delta in outcome["compared"]:
        marker = "REGRESSION" if (name, key, base_v, cur_v, delta) in (
            outcome["regressions"]
        ) else "ok"
        lines.append(
            f"  {marker:<10} {name}.{key}: {base_v:,.0f} -> {cur_v:,.0f} "
            f"({delta:+.1%})"
        )
    if outcome["regressions"]:
        lines.append(
            f"FAIL: {len(outcome['regressions'])} key(s) regressed more "
            f"than {threshold:.0%}"
        )
    else:
        lines.append("PASS: no throughput regression beyond the threshold")
    return "\n".join(lines)


def write_bench(payload: Dict[str, Any], path: Union[str, Path] = DEFAULT_OUT) -> Path:
    """Write ``payload`` to ``path`` (default ``BENCH_engine.json``)."""
    out = Path(path)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return out


def render(payload: Dict[str, Any]) -> str:
    """Human-readable summary table of a bench payload."""
    lines = [
        f"repro bench (version {payload['repro_version']},"
        f" python {payload['python']},"
        f" {'quick' if payload['quick'] else 'full'} sizes)",
        f"{'workload':<16} {'wall s':>10} {'throughput':>20}",
    ]
    for name, w in payload["workloads"].items():
        if "events_per_sec" in w:
            throughput = f"{w['events_per_sec']:,} events/s"
        elif "ops_per_sec" in w:
            throughput = f"{w['ops_per_sec']:,} ops/s"
        elif "builds_per_sec" in w:
            throughput = f"{w['builds_per_sec']:,} builds/s"
        elif "loads_per_sec" in w:
            throughput = f"{w['loads_per_sec']:,} loads/s"
        elif "appends_per_sec" in w:
            throughput = f"{w['appends_per_sec']:,} appends/s"
        else:
            throughput = "-"
        lines.append(f"{name:<16} {w['wall_s']:>10.3f} {throughput:>20}")
    return "\n".join(lines)
