"""Golden measurements of the LSU (CXL.cache event) path.

Each case drives one workload through ``WorkloadDriver.run`` on an LSU
topology and records the measurement's ``to_dict()`` together with the
work counters of the built system: events executed by the simulator, the
LLC home agent's requests, snoops and writebacks, and every DCOH's reads,
writes and issued evictions.  A case that raises a ``ProtocolError`` (the
DirtyEvict race) stores the error text in place of the measurement.
``test_golden_lsu.py`` diffs a fresh run against the stored file.

Regenerate (only on a deliberate behaviour change), from the repo root::

    PYTHONPATH=src python tests/golden_lsu.py
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict

from golden_supernode import built_systems

GOLDEN_PATH = Path(__file__).with_name("data") / "golden_lsu.json"

#: ``(name, workload, topology, streams, fault, seed)``; faulted cases run
#: in degraded mode so outages retry and drop instead of raising.
CASES = (
    ("rw-mix", "rw-mix(4000,0.5)", "fanout(4)", 4, None, 7),
    ("zipf", "zipf(2000,1.2)", "fanout(8)", 8, None, 7),
    ("producer-consumer", "producer-consumer(256)", "fanout(2)", None, None, 7),
    ("uniform", "uniform(4000,512)", "microbench", None, None, 7),
    ("rw-mix+brownout", "rw-mix(4000,0.5)", "fanout(4)", 4, "brownout", 7),
    ("rw-mix+dev-drop", "rw-mix(4000,0.5)", "fanout(4)", 4, "dev-drop", 7),
    ("rw-mix+none", "rw-mix(4000,0.5)", "fanout(4)", 4, "none", 7),
    ("rw-mix-dirty-evict-race", "rw-mix(10000,0.5)", "fanout(4)", 4, None, 3),
)


def work_counters(system) -> Dict[str, object]:
    """Engine, LLC and per-DCOH counters of one built LSU system."""
    llc = system.llc
    dcohs = {}
    for node in system.nodes.values():
        dcoh = getattr(node, "dcoh", None)
        if dcoh is not None:
            dcohs[dcoh.name] = {
                "reads": dcoh.reads,
                "writes": dcoh.writes,
                "evictions_issued": dcoh.evictions_issued,
            }
    return {
        "sim_executed": system.sim.executed,
        "llc": {
            "requests": llc.requests,
            "snoops_sent": llc.snoops_sent,
            "writebacks": llc.writebacks,
        },
        "dcoh": dcohs,
    }


def measure_case(name, workload, topology, streams, fault, seed) -> Dict[str, object]:
    from repro.cache.mesi import ProtocolError
    from repro.config import system_by_name
    from repro.workloads import WorkloadDriver

    kwargs = {} if fault is None else {"fault": fault, "fault_mode": "degraded"}
    entry: Dict[str, object] = {"name": name, "seed": seed}
    with built_systems() as built:
        try:
            measurement = WorkloadDriver(system_by_name("asic")).run(
                workload, topology=topology, seed=seed, streams=streams, **kwargs
            )
        except ProtocolError as exc:
            entry["error"] = f"{type(exc).__name__}: {exc}"
        else:
            entry["measurement"] = measurement.to_dict()
    (system,) = built
    entry["counters"] = work_counters(system)
    return entry


def render() -> str:
    """The golden file's exact text for the current code."""
    cases = [measure_case(*case) for case in CASES]
    return json.dumps({"cases": cases}, indent=1, sort_keys=True) + "\n"


if __name__ == "__main__":
    GOLDEN_PATH.write_text(render())
    print(f"wrote {GOLDEN_PATH}")
