"""Golden results of the multi-device topology experiments.

Each case is one registered topology experiment at its default
parameters on one calibrated profile: ``fanout2``, ``fanout4``, and
``topo-scale`` on ``fanout(1)`` through ``fanout(8)``, for ``asic`` and
``fpga``.  It records every series value exactly, as ``float.hex``.
The latency phase runs one serialized chain per device and the
bandwidth phase one windowed stream per device, all contending on the
shared LLC, so a change in when an LSU issues, or in the order of
same-time events across devices, shows here.  ``test_golden_topology.py``
diffs a fresh run against the stored file.

Regenerate (only on a deliberate behaviour change), from the repo root::

    PYTHONPATH=src python tests/golden_topology.py
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Optional, Tuple

GOLDEN_PATH = Path(__file__).with_name("data") / "golden_topology.json"

#: ``(experiment, profile, topology)``; ``topology`` is None for the
#: fan-out experiments, whose device count is part of their id.
CASES: Tuple[Tuple[str, str, Optional[str]], ...] = tuple(
    case
    for profile in ("asic", "fpga")
    for case in (
        ("fanout2", profile, None),
        ("fanout4", profile, None),
        *(("topo-scale", profile, f"fanout({n})") for n in range(1, 9)),
    )
)


def case_name(experiment: str, profile: str, topology: Optional[str]) -> str:
    return f"{experiment}-{profile}" + ("" if topology is None else f"-{topology}")


def measure_case(
    experiment: str, profile: str, topology: Optional[str]
) -> Dict[str, object]:
    from repro.harness.experiments import run_experiment

    params = {"profile": profile}
    if topology is not None:
        params["topology"] = topology
    result = run_experiment(experiment, **params)
    return {
        "name": case_name(experiment, profile, topology),
        "series": {
            series: {key: value.hex() for key, value in values.items()}
            for series, values in result.series.items()
        },
    }


def render() -> str:
    """The golden file's exact text for the current code."""
    cases = [measure_case(*case) for case in CASES]
    return json.dumps({"cases": cases}, indent=1) + "\n"


if __name__ == "__main__":
    GOLDEN_PATH.write_text(render())
    print(f"wrote {GOLDEN_PATH}")
