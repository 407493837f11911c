"""The synchronous supernode path against its committed golden.

``tests/data/golden_supernode.json`` pins the measurement and the
per-switch ``packets_routed`` counters of nine supernode runs (plain,
shared-write and degraded-fault traffic).  Regenerate it with
``PYTHONPATH=src python tests/golden_supernode.py`` only on a deliberate
behaviour change.
"""

import json

import pytest

from golden_supernode import CASES, GOLDEN_PATH, SEED, measure_case

GOLDEN = json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_case():
    assert GOLDEN["seed"] == SEED
    assert [entry["name"] for entry in GOLDEN["cases"]] == [c[0] for c in CASES]


@pytest.mark.parametrize(
    "case, stored", zip(CASES, GOLDEN["cases"]), ids=[case[0] for case in CASES]
)
def test_case_matches_golden(case, stored):
    assert measure_case(*case) == stored
