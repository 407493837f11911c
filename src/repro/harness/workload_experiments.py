"""Workload-driven experiments built on the workload subsystem.

These scenarios exist because of :mod:`repro.workloads`: any registered
traffic generator (or phase composition, or recorded trace) can drive
any builder-constructed topology, so an access pattern is an experiment
*parameter* — a sweep grid holds ``workload`` references exactly like
it holds ``topology`` references.

``workload-mix`` measures one workload on an LSU-bearing layout
(latency medians + per-stream bandwidth under contention);
``supernode-workload`` drives coherent traffic — not just leases —
through the per-host systems of a supernode topology, reporting fabric
traffic and local-agent filter rates.  Both register in
:data:`repro.harness.experiments.EXPERIMENTS`, so ``repro run``,
``repro sweep`` and the result store cover them like any paper figure
(see the ``workload-mix`` sweep preset).
"""

from __future__ import annotations

from repro.config import system_by_name
from repro.harness.experiments import ExperimentResult, register_experiment


def workload_mix(
    workload: str = "mixed",
    topology: str = "fanout-2",
    profile: str = "fpga",
    seed: int = 1234,
    streams: int = 0,
) -> ExperimentResult:
    """One workload through an LSU-bearing topology: latency + bandwidth."""
    from repro.workloads import WorkloadDriver

    driver = WorkloadDriver(system_by_name(profile))
    measurement = driver.run(
        workload,
        topology=topology,
        seed=seed,
        streams=streams or None,
    )
    series = dict(measurement.series)
    series["counts"] = {
        "ops": float(measurement.ops),
        "reads": float(measurement.reads),
        "writes": float(measurement.writes),
    }
    return ExperimentResult(
        "workload-mix", workload_mix.__doc__, series, measurement.render()
    )


def supernode_workload(
    workload: str = "producer-consumer",
    hosts: int = 2,
    profile: str = "asic",
    seed: int = 1234,
    streams: int = 0,
) -> ExperimentResult:
    """Coherent workload traffic through per-host supernode systems."""
    from repro.workloads import WorkloadDriver

    driver = WorkloadDriver(system_by_name(profile))
    measurement = driver.run(
        workload,
        topology=f"supernode({hosts})",
        seed=seed,
        streams=streams or None,
    )
    series = dict(measurement.series)
    series["counts"] = {
        "ops": float(measurement.ops),
        "reads": float(measurement.reads),
        "writes": float(measurement.writes),
    }
    return ExperimentResult(
        "supernode-workload", supernode_workload.__doc__, series,
        measurement.render(),
    )


register_experiment("workload-mix", workload_mix)
register_experiment("supernode-workload", supernode_workload)
