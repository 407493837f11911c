"""Both RAO NICs against their committed golden, at 1, 2 and 8 PEs.

``tests/data/golden_rao.json`` pins the exact throughput and HMC hit
rate of every pattern of one ``run_rao_comparison`` call per profile and
PE count.  Regenerate it with ``PYTHONPATH=src python
tests/golden_rao.py`` only on a deliberate behaviour change.
"""

import json

import pytest

from golden_rao import CASES, GOLDEN_PATH, case_name, measure_case

GOLDEN = json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_case():
    assert [entry["name"] for entry in GOLDEN["cases"]] == [
        case_name(profile, pe_count) for profile, pe_count, _ in CASES
    ]


@pytest.mark.parametrize(
    "case, stored", zip(CASES, GOLDEN["cases"]),
    ids=[case_name(profile, pe_count) for profile, pe_count, _ in CASES],
)
def test_case_matches_golden(case, stored):
    assert measure_case(*case) == stored
