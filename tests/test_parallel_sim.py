"""Windowed-parallel supernode simulation: the parity contract.

The contracts under test: every ``sim_parallel >= 1`` value produces a
bit-identical measurement (the windowed lanes, merge order and
directory replica are shared code — worker count only changes who runs
them); the legacy path (``sim_parallel`` absent or ``0``) is untouched;
fault plans keep the parity including availability/recovery series;
``"auto"`` resolves through ``REPRO_JOBS`` without changing results;
and a host with an empty calendar never stalls the window barrier.
"""

import pytest

from repro.config import asic_system
from repro.experiments.spec import SpecError, SweepSpec
from repro.system.topology import (
    TOPOLOGY_FAMILIES,
    resolve_topology,
    topology_names,
)
from repro.workloads import WorkloadDriver, WorkloadDriverError


def _supernode_refs():
    """Every registered supernode topology: named entries + family sizes."""
    refs = [
        name for name in topology_names()
        if resolve_topology(name).by_kind("supernode.fabric")
    ]
    if "supernode" in TOPOLOGY_FAMILIES:
        refs.extend(["supernode(2)", "supernode(3)", "supernode(4)"])
    return refs


def _measure(topology, workload, sim_parallel, fault=None, seed=77):
    driver = WorkloadDriver(asic_system())
    kwargs = {}
    if fault is not None:
        kwargs.update(fault=fault, fault_mode="degraded")
    measurement = driver.run(
        workload,
        topology=topology,
        seed=seed,
        streams=4,
        sim_parallel=sim_parallel,
        **kwargs,
    )
    return {
        "workload": measurement.workload,
        "topology": measurement.topology,
        "ops": measurement.ops,
        "reads": measurement.reads,
        "writes": measurement.writes,
        "series": measurement.series,
        "fault": measurement.fault,
    }


# --------------------- bit-identical parity ---------------------------
@pytest.mark.parametrize("topology", _supernode_refs())
def test_parity_across_worker_counts_for_every_supernode_topology(topology):
    baseline = _measure(topology, "zipf(192,1.2)", sim_parallel=1)
    for jobs in (2, 4):
        assert _measure(topology, "zipf(192,1.2)", sim_parallel=jobs) == baseline


@pytest.mark.parametrize(
    "workload", ["uniform(256,512)", "producer-consumer(96,24)", "mixed(96)"]
)
def test_parity_holds_across_workload_shapes(workload):
    baseline = _measure("supernode(4)", workload, sim_parallel=1)
    assert _measure("supernode(4)", workload, sim_parallel=3) == baseline


@pytest.mark.parametrize("fault", ["storm", "host-outage", "link-degrade(8)"])
def test_parity_under_an_active_fault_plan(fault):
    baseline = _measure("supernode(4)", "mixed(96)", sim_parallel=1, fault=fault)
    assert "availability" in baseline["series"]
    assert "recovery" in baseline["series"]
    for jobs in (2, 4):
        assert (
            _measure("supernode(4)", "mixed(96)", sim_parallel=jobs, fault=fault)
            == baseline
        )


def test_sim_parallel_zero_matches_omitting_the_parameter():
    driver = WorkloadDriver(asic_system())
    plain = driver.run("zipf(128,1.2)", topology="supernode(2)", seed=5, streams=2)
    zero = driver.run(
        "zipf(128,1.2)", topology="supernode(2)", seed=5, streams=2,
        sim_parallel=0,
    )
    assert zero.series == plain.series
    assert (zero.ops, zero.reads, zero.writes) == (
        plain.ops, plain.reads, plain.writes
    )


# ------------------------- auto resolution ----------------------------
def test_auto_is_deterministic_across_repro_jobs_values(monkeypatch):
    results = []
    for jobs in ("1", "2", "4"):
        monkeypatch.setenv("REPRO_JOBS", jobs)
        results.append(_measure("supernode(4)", "zipf(192,1.2)", "auto"))
    assert results[0] == results[1] == results[2]
    assert results[0] == _measure("supernode(4)", "zipf(192,1.2)", 1)


# ------------------------ windowed internals --------------------------
def test_empty_host_calendar_does_not_stall_the_barrier():
    # Every op lands on stream 0 of a 4-host supernode: three lanes have
    # empty calendars from the first window on, and must keep
    # barrier-stepping (or skipping) instead of deadlocking.
    driver = WorkloadDriver(asic_system())
    measurement = driver.run(
        "sequential(64)", topology="supernode(4)", seed=3, sim_parallel=4
    )
    assert measurement.ops == 64
    serial = driver.run(
        "sequential(64)", topology="supernode(4)", seed=3, sim_parallel=1
    )
    assert measurement.series == serial.series


def test_lane_miss_cost_is_the_supernode_miss_cost():
    from repro.core.supernode import Supernode
    from repro.sim.parallel import remote_latency_table

    # No fabric memory: misses route to host2's leaf, so costs differ.
    node = Supernode(asic_system(), hosts=3, fabric_memory_bytes=0)
    table = remote_latency_table(node)
    assert len(set(table.values())) == 2
    for i, host in enumerate(sorted(node.hosts)):
        assert node.coherent_access(host, 0x1000 + 64 * i) == table[host]


def test_windowed_results_are_deterministic_across_invocations():
    first = _measure("supernode(3)", "mixed(96)", sim_parallel=2)
    second = _measure("supernode(3)", "mixed(96)", sim_parallel=2)
    assert first == second


# --------------------------- validation -------------------------------
def test_sim_parallel_rejects_lsu_topologies():
    driver = WorkloadDriver(asic_system())
    with pytest.raises(WorkloadDriverError, match="supernode topologies only"):
        driver.run("zipf(64,1.2)", topology="fanout-2", seed=1, sim_parallel=2)


@pytest.mark.parametrize("bad", ["fast", -1, 2.5, True])
def test_driver_rejects_malformed_sim_parallel(bad):
    driver = WorkloadDriver(asic_system())
    with pytest.raises(WorkloadDriverError, match="sim_parallel"):
        driver.run(
            "zipf(64,1.2)", topology="supernode(2)", seed=1, sim_parallel=bad
        )


def test_sweep_spec_validates_sim_parallel_up_front():
    spec = SweepSpec.from_dict({
        "name": "bad",
        "experiments": [{
            "experiment": "supernode-workload",
            "grid": {"sim_parallel": ["bananas"]},
        }],
    })
    with pytest.raises(SpecError, match="sim_parallel"):
        spec.validate()


def test_sweep_spec_accepts_auto_and_integers():
    spec = SweepSpec.from_dict({
        "name": "good",
        "experiments": [{
            "experiment": "supernode-workload",
            "params": {"sim_parallel": "auto"},
            "grid": {"hosts": [2, 4]},
        }],
    })
    spec.validate()
