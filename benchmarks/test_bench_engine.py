"""Microbenchmarks for paths perfbench does not time.

perfbench (``perfbench/run.py``) times the engine drain, system builds,
workload batches, result-store appends and the RPC comparison inside
its four workloads.  These two cases keep the rest under
pytest-benchmark: the bare event calendar with no workload logic, and
the data-driven topology path (JSON parse, schema validation, registry
dispatch, build) that no perfbench workload loads.
"""

from repro.config import fpga_system
from repro.sim.engine import Simulator
from repro.system import SystemBuilder, dump_topology, load_topology, topology_by_name


def test_raw_fast_path_schedule(benchmark):
    """Pure schedule_after + drain cost, no workload logic at all."""

    def drain() -> int:
        sim = Simulator()
        noop = lambda: None  # noqa: E731
        for i in range(10_000):
            sim.schedule_after(i % 977, noop)
        sim.run()
        return sim.executed

    executed = benchmark.pedantic(drain, rounds=3, iterations=1)
    assert executed == 10_000


def test_topology_load_and_build(benchmark, tmp_path):
    """Load, validate and build ``fanout-2`` from its JSON dump, 50 times."""
    path = tmp_path / "fanout-2.json"
    dump_topology(topology_by_name("fanout-2"), path)
    builder = SystemBuilder(fpga_system())
    expected = len(builder.build("fanout-2").nodes)

    def load_and_build() -> int:
        return sum(len(builder.build(load_topology(path)).nodes) for _ in range(50))

    nodes = benchmark.pedantic(load_and_build, rounds=3, iterations=1)
    assert nodes == 50 * expected
