"""Golden RAO results of both NIC designs at several PE counts.

Each case is one ``run_rao_comparison`` call at ``ops=256`` on one
calibrated profile with one CXL-NIC PE count, over the six CircusTent
patterns plus STRIDEN (and PTRCHASE, whose FAAs chain through one line,
at one PE).  It records every pattern's ``pcie_mops``, ``cxl_mops`` and
``cxl_hit_rate`` exactly, as ``float.hex``.  PEs contend for lines at
the same picosecond, so a change in the order of same-time events shows
here even where Fig. 17's single-PE operating point hides it.
``test_golden_rao.py`` diffs a fresh run against the stored file.

Regenerate (only on a deliberate behaviour change), from the repo root::

    PYTHONPATH=src python tests/golden_rao.py
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Tuple

GOLDEN_PATH = Path(__file__).with_name("data") / "golden_rao.json"

OPS = 256

_PATTERNS = ("RAND", "STRIDE1", "CENTRAL", "SG", "SCATTER", "GATHER", "STRIDEN")

#: ``(profile, pe_count, patterns)``; one comparison call each.
CASES: Tuple[Tuple[str, int, Tuple[str, ...]], ...] = tuple(
    (profile, pe_count, _PATTERNS + (("PTRCHASE",) if pe_count == 1 else ()))
    for profile in ("asic", "fpga")
    for pe_count in (1, 2, 8)
)


def case_name(profile: str, pe_count: int) -> str:
    return f"{profile}-pe{pe_count}"


def measure_case(profile: str, pe_count: int, patterns) -> Dict[str, object]:
    from repro.config import system_by_name
    from repro.rao.harness import run_rao_comparison

    results = run_rao_comparison(
        system_by_name(profile), patterns=patterns, ops=OPS, pe_count=pe_count
    )
    return {
        "name": case_name(profile, pe_count),
        "results": {
            pattern: {
                "pcie_mops": row.pcie_mops.hex(),
                "cxl_mops": row.cxl_mops.hex(),
                "cxl_hit_rate": row.cxl_hit_rate.hex(),
            }
            for pattern, row in results.items()
        },
    }


def render() -> str:
    """The golden file's exact text for the current code."""
    cases = [measure_case(*case) for case in CASES]
    return json.dumps({"cases": cases}, indent=1) + "\n"


if __name__ == "__main__":
    GOLDEN_PATH.write_text(render())
    print(f"wrote {GOLDEN_PATH}")
