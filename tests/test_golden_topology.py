"""The topology experiments against their committed golden.

``tests/data/golden_topology.json`` pins every series value of
``fanout2``, ``fanout4`` and ``topo-scale`` on ``fanout(1)`` through
``fanout(8)``, on both calibrated profiles, at default parameters.
Regenerate it with ``PYTHONPATH=src python tests/golden_topology.py``
only on a deliberate behaviour change.
"""

import json

import pytest

from golden_topology import CASES, GOLDEN_PATH, case_name, measure_case

GOLDEN = json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_case():
    assert [entry["name"] for entry in GOLDEN["cases"]] == [
        case_name(*case) for case in CASES
    ]


@pytest.mark.parametrize(
    "case, stored", zip(CASES, GOLDEN["cases"]),
    ids=[case_name(*case) for case in CASES],
)
def test_case_matches_golden(case, stored):
    assert measure_case(*case) == stored
