"""Golden measurements of the synchronous supernode path.

Each case drives one workload through ``WorkloadDriver.run`` on a
supernode topology at seed 7 and records the measurement's ``to_dict()``
together with every fabric switch's ``packets_routed`` counter.
``test_golden_supernode.py`` diffs a fresh run against the stored file
byte for byte.

Regenerate (only on a deliberate behaviour change), from the repo root::

    PYTHONPATH=src python tests/golden_supernode.py
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List

GOLDEN_PATH = Path(__file__).with_name("data") / "golden_supernode.json"

SEED = 7

#: ``(name, workload, topology, streams, fault)``; faulted cases run in
#: degraded mode so outages retry and drop instead of raising.
CASES = (
    ("rw-mix", "rw-mix(4000,0.7)", "supernode(4)", 4, None),
    ("producer-consumer", "producer-consumer(256)", "supernode(4)", None, None),
    ("uniform", "uniform(4000,512)", "supernode(4)", 4, None),
    ("zipf", "zipf(2000,1.2)", "supernode(2)", 2, None),
    ("rw-mix+host-outage", "rw-mix(4000,0.7)", "supernode(4)", 4, "host-outage"),
    ("rw-mix+storm", "rw-mix(4000,0.7)", "supernode(4)", 4, "storm"),
    ("rw-mix+none", "rw-mix(4000,0.7)", "supernode(4)", 4, "none"),
    ("rw-mix+link-degrade", "rw-mix(4000,0.7)", "supernode(4)", 4, "link-degrade(8)"),
    ("rw-mix+msg-corrupt", "rw-mix(4000,0.7)", "supernode(4)", 4, "msg-corrupt(0.5)"),
)


@contextmanager
def built_systems() -> Iterator[List[object]]:
    """Collect every system built or forked meanwhile.

    That is every system ``SystemBuilder.build`` or ``BuiltSystem.fork``
    returns.  A fork carries its parent's counters, so summing a fork
    counts the work that produced its starting state once more, just as
    if that state had been simulated again.
    """
    from repro.system import BuiltSystem, SystemBuilder

    built: List[object] = []
    build, fork = SystemBuilder.build, BuiltSystem.fork

    def recording(original):
        def call(*args, **kwargs):
            system = original(*args, **kwargs)
            built.append(system)
            return system

        return call

    SystemBuilder.build, BuiltSystem.fork = recording(build), recording(fork)
    try:
        yield built
    finally:
        SystemBuilder.build, BuiltSystem.fork = build, fork


def measure_case(name, workload, topology, streams, fault) -> Dict[str, object]:
    from repro.config import system_by_name
    from repro.workloads import WorkloadDriver

    kwargs = {} if fault is None else {"fault": fault, "fault_mode": "degraded"}
    with built_systems() as built:
        measurement = WorkloadDriver(system_by_name("asic")).run(
            workload, topology=topology, seed=SEED, streams=streams, **kwargs
        )
    (system,) = built
    fabric = system.node(system.topology.by_kind("supernode.fabric")[0].name).fabric
    return {
        "name": name,
        "measurement": measurement.to_dict(),
        "packets_routed": {
            switch: fabric.switch(switch).packets_routed
            for switch in fabric.switches
        },
    }


def render() -> str:
    """The golden file's exact text for the current code."""
    cases = [measure_case(*case) for case in CASES]
    return json.dumps({"seed": SEED, "cases": cases}, indent=1, sort_keys=True) + "\n"


if __name__ == "__main__":
    GOLDEN_PATH.write_text(render())
    print(f"wrote {GOLDEN_PATH}")
