"""Multi-device fan-out experiments built on the topology layer.

These scenarios exist because of :mod:`repro.system`: N type-1 devices
(each with its own LSU) share one host LLC home agent, so their
concurrent load streams contend on the home-agent initiation interval
and the memory controller — the first scaling axis past the paper's
single-device calibration.  ``fanout2``/``fanout4`` are registered in
:data:`repro.harness.experiments.EXPERIMENTS`, so ``repro run`` and
``repro sweep`` cover them like any paper figure.

``topo-scale`` generalizes the same measurement to *any* LSU-bearing
topology named by a JSON-representable reference — a registered name
(``"fanout-8"``, including layouts loaded from ``examples/topologies/``
JSON files) or a parametric family (``"fanout(6)"``).  That makes the
topology itself a sweep axis: the ``topology-scale`` preset grids
``fanout(1)`` through ``fanout(8)`` and every point hashes/caches
independently in the result store.
"""

from __future__ import annotations

import statistics
from typing import Dict, List

from repro.config import system_by_name
from repro.harness.experiments import ExperimentResult, register_experiment
from repro.harness.tables import render_series
from repro.mem.address import CACHELINE
from repro.system import (
    BuiltSystem,
    SystemBuilder,
    Topology,
    fanout_topology,
    resolve_topology,
)


def _latency_chain(lsu, addrs: List[int], out: List[int]) -> None:
    """Serialized loads (LSU issue/complete timing) recording latencies.

    Unlike :meth:`LoadStoreUnit.run_latency` this does not drain the
    simulator, so several chains can run concurrently on one system.
    """
    profile = lsu.profile
    issue_ps = profile.cycles_ps(profile.lsu_issue_cycles)
    complete_ps = profile.cycles_ps(profile.lsu_complete_cycles)
    state = {"index": 0, "issued_ps": 0}

    def issue_next() -> None:
        if state["index"] >= len(addrs):
            return
        addr = addrs[state["index"]]
        state["index"] += 1
        state["issued_ps"] = lsu.sim.now

        def done(_result) -> None:
            lsu.schedule(complete_ps, finish)

        def finish() -> None:
            out.append(lsu.sim.now - state["issued_ps"])
            issue_next()

        lsu.dcoh.read(addr, done, issue_ps)

    issue_next()


def _bandwidth_stream(lsu, addrs: List[int]) -> Dict[str, int]:
    """Pipelined loads under the profile's outstanding window; the
    returned state carries first-issue/last-done timestamps and bytes."""
    profile = lsu.profile
    issue_ii = profile.clock_period_ps
    state = {
        "index": 0,
        "inflight": 0,
        "first_issue_ps": -1,
        "last_done_ps": 0,
        "bytes": 0,
    }

    def try_issue() -> None:
        if state["index"] >= len(addrs):
            return
        if state["inflight"] >= profile.max_outstanding:
            return  # a completion re-triggers issue
        addr = addrs[state["index"]]
        state["index"] += 1
        state["inflight"] += 1
        if state["first_issue_ps"] < 0:
            state["first_issue_ps"] = lsu.sim.now

        def done(_result) -> None:
            state["inflight"] -= 1
            state["last_done_ps"] = lsu.sim.now
            state["bytes"] += CACHELINE
            try_issue()

        lsu.dcoh.read(addr, done)
        lsu.schedule(issue_ii, try_issue)

    try_issue()
    return state


def _device_window(device_index: int, base: int = 0x200000) -> int:
    """Base of a private per-device address window (no line sharing)."""
    return base + device_index * 0x100_0000


def _scaling_measurement(
    topology: Topology,
    profile: str,
    count: int,
    trials: int,
    bw_count: int,
    name: str,
    description: str,
    title: str,
) -> ExperimentResult:
    """Concurrent latency/bandwidth across every LSU of ``topology``.

    Two fresh builds of the same topology (one per phase), so the
    phases never share simulator state; windows are carved per LSU in
    declaration order, so no two streams share a cache line.
    """
    lsu_names = [spec.name for spec in topology.by_kind("lsu")]
    if not lsu_names:
        raise ValueError(
            f"topology {topology.name!r} declares no 'lsu' nodes; the "
            "scaling measurement needs at least one load/store unit to drive"
        )
    config = system_by_name(profile)

    # --- latency phase: every device chases its own serialized chain.
    system: BuiltSystem = SystemBuilder(config).build(topology)
    per_device_lat: Dict[int, List[int]] = {}
    for i, lsu_name in enumerate(lsu_names):
        per_device_lat[i] = []
        lsu = system.node(lsu_name)
        _latency_chain(
            lsu,
            lsu.sequential_lines(_device_window(i), count * trials),
            per_device_lat[i],
        )
    system.sim.run()

    # --- bandwidth phase: fresh system, pipelined streams in parallel.
    system = SystemBuilder(config).build(topology)
    streams = {
        i: _bandwidth_stream(
            system.node(lsu_name),
            system.node(lsu_name).sequential_lines(_device_window(i), bw_count),
        )
        for i, lsu_name in enumerate(lsu_names)
    }
    system.sim.run()

    lat_ns: Dict[str, float] = {
        f"dev{i}": statistics.median(samples) / 1_000
        for i, samples in per_device_lat.items()
    }
    lat_ns["all"] = statistics.median(
        [s for samples in per_device_lat.values() for s in samples]
    ) / 1_000

    bw_gbps: Dict[str, float] = {}
    for i, state in streams.items():
        elapsed = state["last_done_ps"] - state["first_issue_ps"]
        bw_gbps[f"dev{i}"] = state["bytes"] / elapsed * 1_000 if elapsed else 0.0
    total_bytes = sum(s["bytes"] for s in streams.values())
    span = max(s["last_done_ps"] for s in streams.values()) - min(
        s["first_issue_ps"] for s in streams.values()
    )
    bw_gbps["all"] = total_bytes / span * 1_000 if span else 0.0

    series = {"mem_lat_median_ns": lat_ns, "bandwidth_gbps": bw_gbps}
    text = render_series("device", series, title=title, fmt="{:.2f}")
    return ExperimentResult(name, description, series, text)


def fanout_scaling(
    devices: int = 2,
    profile: str = "fpga",
    count: int = 16,
    trials: int = 4,
    bw_count: int = 512,
) -> ExperimentResult:
    """N-device fan-out: concurrent mem-hit latency and aggregate bandwidth."""
    return _scaling_measurement(
        fanout_topology(devices),
        profile,
        count,
        trials,
        bw_count,
        name=f"fanout{devices}",
        description=fanout_scaling.__doc__,
        title=(
            f"Fan-out x{devices} ({profile}): concurrent mem-hit latency "
            "and bandwidth"
        ),
    )


def topology_scaling(
    topology: str = "fanout(2)",
    profile: str = "fpga",
    count: int = 16,
    trials: int = 4,
    bw_count: int = 512,
) -> ExperimentResult:
    """Concurrent mem-hit latency/bandwidth on any LSU-bearing topology."""
    resolved = resolve_topology(topology)
    return _scaling_measurement(
        resolved,
        profile,
        count,
        trials,
        bw_count,
        name="topo-scale",
        description=topology_scaling.__doc__,
        title=(
            f"Topology {resolved.name} ({profile}): concurrent mem-hit "
            "latency and bandwidth"
        ),
    )


def fanout2_scaling(
    profile: str = "fpga", count: int = 16, trials: int = 4, bw_count: int = 512
) -> ExperimentResult:
    """2-device fan-out: shared-LLC contention latency/bandwidth."""
    return fanout_scaling(2, profile=profile, count=count, trials=trials,
                          bw_count=bw_count)


def fanout4_scaling(
    profile: str = "fpga", count: int = 16, trials: int = 4, bw_count: int = 512
) -> ExperimentResult:
    """4-device fan-out: shared-LLC contention latency/bandwidth."""
    return fanout_scaling(4, profile=profile, count=count, trials=trials,
                          bw_count=bw_count)


register_experiment("fanout2", fanout2_scaling)
register_experiment("fanout4", fanout4_scaling)
register_experiment("topo-scale", topology_scaling)
