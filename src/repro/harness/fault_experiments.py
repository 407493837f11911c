"""Fault-tolerance experiments built on the fault subsystem.

This scenario exists because of :mod:`repro.faults`: a failure
timeline is a *parameter* of a run, exactly like its shape
(``topology``) and its traffic (``workload``) — a sweep grid holds
``fault`` references alongside the other two axes, and the spec layer
validates them up-front against the plan registry.

``fault-tolerance`` drives one workload through one topology under one
fault plan in degraded mode (bounded retry-with-backoff instead of
fail-loud), reporting the usual latency/bandwidth series *plus* the
availability and recovery series the controller collects: completed vs
dropped operations, retries, corrupted deliveries, time spent inside
fault windows, and post-recovery settling time.  With
``fault="none"`` the degraded machinery is engaged but no event ever
fires, so the core series must stay bit-identical to a plain
``workload-mix`` run — the regression contract CI's fault-smoke job
asserts.
"""

from __future__ import annotations

from repro.config import system_by_name
from repro.harness.experiments import ExperimentResult, register_experiment


def fault_tolerance(
    fault: str = "none",
    workload: str = "mixed",
    topology: str = "fanout-2",
    profile: str = "fpga",
    seed: int = 1234,
    streams: int = 0,
    mode: str = "degraded",
    retries: int = 3,
    backoff_ps: int = 500_000,
) -> ExperimentResult:
    """One workload under a fault plan: availability + recovery metrics."""
    from repro.workloads import WorkloadDriver

    driver = WorkloadDriver(system_by_name(profile))
    measurement = driver.run(
        workload,
        topology=topology,
        seed=seed,
        streams=streams or None,
        fault=fault,
        fault_mode=mode,
        fault_retries=retries,
        fault_backoff_ps=backoff_ps,
    )
    series = dict(measurement.series)
    series["counts"] = {
        "ops": float(measurement.ops),
        "reads": float(measurement.reads),
        "writes": float(measurement.writes),
    }
    return ExperimentResult(
        "fault-tolerance", fault_tolerance.__doc__, series,
        measurement.render(),
    )


register_experiment("fault-tolerance", fault_tolerance)
