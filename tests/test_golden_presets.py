"""The extension presets' sweep records against their committed golden.

``tests/data/golden_presets.json`` pins each spec hash's status and
series for ``workload-mix`` and ``fault-tolerance`` as shipped and for
``significance`` at 3 repeats.  Every preset must reproduce it through
the serial backend and through the fork pool.  Regenerate it with
``PYTHONPATH=src python tests/golden_presets.py`` only on a deliberate
behaviour change.
"""

import json

import pytest

from golden_presets import GOLDEN_PATH, PRESET_REPEATS, sweep_records

from repro.experiments.runner import _pool_context

GOLDEN = json.loads(GOLDEN_PATH.read_text())

needs_fork = pytest.mark.skipif(
    _pool_context().get_start_method() != "fork",
    reason="multi-process tests need the fork start method",
)


def test_golden_covers_every_preset():
    assert sorted(GOLDEN) == sorted(PRESET_REPEATS)
    assert sum(len(records) for records in GOLDEN.values()) == 22


@pytest.mark.parametrize("preset", PRESET_REPEATS)
def test_serial_sweep_matches_golden(preset, tmp_path):
    assert sweep_records(preset, tmp_path, "serial") == GOLDEN[preset]


@needs_fork
@pytest.mark.parametrize("preset", PRESET_REPEATS)
def test_pool_sweep_matches_golden(preset, tmp_path):
    assert sweep_records(preset, tmp_path, "pool", jobs=2) == GOLDEN[preset]
