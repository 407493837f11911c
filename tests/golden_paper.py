"""Golden work counters of the 13 paper experiments.

The counters are measured inside one ``repro run all`` pass: shared
results are cleared, then every id of ``PAPER_EXPERIMENT_IDS`` runs in
order, in process.  So headline and mape count only the work they add
to a pass that has already run fig13 and fig15.  Each entry sums the
work counters of every system its experiment builds or forks: events
executed by the simulator; the LLC home agent's requests, snoops,
writebacks and array hits/misses; and every device's HMC array
hits/misses and snoops received, and DCOH reads, writes and issued
evictions.  These are the counters perfbench's traced run reports.  A
fork carries its parent's counters, so a forked system counts the same
as one that simulated its parent's work again (fig17 forks one warmed
RAO system per pattern; ``test_golden_paper.py`` counts that saving
separately).  The counters do not depend on the host or the Python
version, so ``test_golden_paper.py`` checks them exactly on every runner:
a change that adds simulator work to a paper experiment moves its entry.

Regenerate (only on a deliberate behaviour change), from the repo root::

    PYTHONPATH=src python tests/golden_paper.py
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable

from golden_supernode import built_systems

GOLDEN_PATH = Path(__file__).with_name("data") / "golden_paper.json"

COUNTERS = (
    "sim.executed",
    "llc.requests",
    "llc.snoops_sent",
    "llc.writebacks",
    "llc.hits",
    "llc.misses",
    "hmc.hits",
    "hmc.misses",
    "hmc.snoops_received",
    "dcoh.reads",
    "dcoh.writes",
    "dcoh.evictions_issued",
)


def work_counters(systems: Iterable[object]) -> Dict[str, int]:
    """The summed :data:`COUNTERS` of ``systems``."""
    totals = dict.fromkeys(COUNTERS, 0)
    for system in systems:
        totals["sim.executed"] += system.sim.executed
        llc = system.llc
        if llc is not None:
            totals["llc.requests"] += llc.requests
            totals["llc.snoops_sent"] += llc.snoops_sent
            totals["llc.writebacks"] += llc.writebacks
            totals["llc.hits"] += llc.array.hits
            totals["llc.misses"] += llc.array.misses
        for node in system.nodes.values():
            dcoh, hmc = getattr(node, "dcoh", None), getattr(node, "hmc", None)
            # A device holds both; an LSU holds only its device's DCOH.
            if dcoh is None or hmc is None:
                continue
            totals["hmc.hits"] += hmc.array.hits
            totals["hmc.misses"] += hmc.array.misses
            totals["hmc.snoops_received"] += hmc.snoops_received
            totals["dcoh.reads"] += dcoh.reads
            totals["dcoh.writes"] += dcoh.writes
            totals["dcoh.evictions_issued"] += dcoh.evictions_issued
    return totals


def measure(exp_id: str) -> Dict[str, int]:
    """Run one paper experiment and sum the counters of what it built or forked."""
    from repro.harness.experiments import run_experiment

    with built_systems() as built:
        run_experiment(exp_id)
    return work_counters(built)


def measure_pass() -> Dict[str, Dict[str, int]]:
    """:func:`measure` every paper experiment inside one fresh pass, in order."""
    from repro.harness.experiments import PAPER_EXPERIMENT_IDS, clear_shared_results

    clear_shared_results()
    return {exp_id: measure(exp_id) for exp_id in PAPER_EXPERIMENT_IDS}


def render() -> str:
    """The golden file's exact text for the current code."""
    return json.dumps(measure_pass(), indent=1) + "\n"


if __name__ == "__main__":
    GOLDEN_PATH.write_text(render())
    print(f"wrote {GOLDEN_PATH}")
