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
from repro.devices.lsu import LsuChain
from repro.harness.experiments import ExperimentResult, register_experiment
from repro.harness.tables import render_series
from repro.system import (
    BuiltSystem,
    SystemBuilder,
    Topology,
    fanout_topology,
    resolve_topology,
)


def _device_window(device_index: int, base: int = 0x200000) -> int:
    """Base of a private per-device address window (no line sharing)."""
    return base + device_index * 0x100_0000


def _run_chains(
    config, topology: Topology, lsu_names: List[str], count: int, windowed: bool
) -> List[LsuChain]:
    """On a fresh build, run one chain of ``count`` loads per LSU at once.

    Windows are carved per LSU in declaration order, so no two streams
    share a cache line.
    """
    system: BuiltSystem = SystemBuilder(config).build(topology)
    chains = []
    for i, lsu_name in enumerate(lsu_names):
        lsu = system.node(lsu_name)
        chain = LsuChain(
            lsu, lsu.sequential_lines(_device_window(i), count), windowed=windowed
        )
        chain.begin()
        chains.append(chain)
    system.sim.run()
    return chains


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
    phases never share simulator state.
    """
    lsu_names = [spec.name for spec in topology.by_kind("lsu")]
    if not lsu_names:
        raise ValueError(
            f"topology {topology.name!r} declares no 'lsu' nodes; the "
            "scaling measurement needs at least one load/store unit to drive"
        )
    config = system_by_name(profile)

    # --- latency phase: every device chases its own serialized chain.
    latency = _run_chains(config, topology, lsu_names, count * trials, False)
    lat_ns: Dict[str, float] = {
        f"dev{i}": statistics.median(chain.latencies) / 1_000
        for i, chain in enumerate(latency)
    }
    lat_ns["all"] = statistics.median(
        [s for chain in latency for s in chain.latencies]
    ) / 1_000

    # --- bandwidth phase: fresh system, pipelined streams in parallel.
    # The shared home agent's initiation interval bounds these streams:
    # a load issued a few cycles earlier only waits longer there.  So
    # every completion, and the bandwidth from first issue to last
    # completion, is the same whether a freed window slot issues at once
    # or, as the chain does, no sooner than one cycle after the last issue.
    streams = _run_chains(config, topology, lsu_names, bw_count, True)
    bw_gbps: Dict[str, float] = {
        f"dev{i}": chain.bandwidth_gbps for i, chain in enumerate(streams)
    }
    total_bytes = sum(chain.bytes for chain in streams)
    span = max(chain.last_done_ps for chain in streams) - min(
        chain.first_issue_ps for chain in streams
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
