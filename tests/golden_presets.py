"""Golden sweep records of the extension presets.

Runs the ``workload-mix`` and ``fault-tolerance`` presets as shipped
(fault plans in degraded mode, plus the supernode-workload group) and
``significance`` at 3 repeats, and keeps each spec hash's ``status``
and ``series``.  ``test_golden_presets.py`` sweeps every preset through
the serial backend and through the fork pool, and requires both to
equal the stored file.

Regenerate (only on a deliberate behaviour change), from the repo root::

    PYTHONPATH=src python tests/golden_presets.py
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path
from typing import Dict, Optional

GOLDEN_PATH = Path(__file__).with_name("data") / "golden_presets.json"

#: Preset name -> ``--repeats`` override (None: as shipped).
PRESET_REPEATS: Dict[str, Optional[int]] = {
    "workload-mix": None,
    "fault-tolerance": None,
    "significance": 3,
}


def sweep_records(
    preset: str, run_dir: Path, backend: str, jobs: int = 1
) -> Dict[str, Dict[str, object]]:
    """``{spec_hash: {"status", "series"}}`` of one fresh preset sweep."""
    from repro.experiments import ResultStore, preset_sweep, run_sweep

    run_sweep(
        preset_sweep(preset), run_dir, jobs=jobs, backend=backend,
        repeats=PRESET_REPEATS[preset], telemetry=False,
    )
    return {
        spec_hash: {"status": record.status, "series": record.series}
        for spec_hash, record in sorted(ResultStore(run_dir).latest().items())
    }


def render() -> str:
    """The golden file's exact text for the current code."""
    with tempfile.TemporaryDirectory() as tmp:
        presets = {
            preset: sweep_records(preset, Path(tmp) / preset, "serial")
            for preset in PRESET_REPEATS
        }
    return json.dumps(presets, indent=1, sort_keys=True) + "\n"


if __name__ == "__main__":
    GOLDEN_PATH.write_text(render())
    print(f"wrote {GOLDEN_PATH}")
