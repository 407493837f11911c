"""The LSU (CXL.cache event) path against its committed golden.

``tests/data/golden_lsu.json`` pins the measurement and the engine, LLC
and DCOH work counters of eight LSU-mode runs: fan-out sharing traffic,
a microbench run, degraded-fault plans and one run that hits the
DirtyEvict race.  Regenerate it with ``PYTHONPATH=src python
tests/golden_lsu.py`` only on a deliberate behaviour change.
"""

import json

import pytest

from golden_lsu import CASES, GOLDEN_PATH, measure_case

GOLDEN = json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_case():
    assert [entry["name"] for entry in GOLDEN["cases"]] == [c[0] for c in CASES]


@pytest.mark.parametrize(
    "case, stored", zip(CASES, GOLDEN["cases"]), ids=[case[0] for case in CASES]
)
def test_case_matches_golden(case, stored):
    assert measure_case(*case) == stored
