"""Fig. 18's RPC designs against their committed golden, to the picosecond.

``tests/data/golden_rpc.json`` pins every design's exact total and
per-message times on each bench and profile at Fig. 18's 200 messages,
and the prefetcher's counters at degrees 1, 2, 4 and 8.  Regenerate it
with ``PYTHONPATH=src python tests/golden_rpc.py`` only on a deliberate
behaviour change.
"""

import json

import pytest

from golden_rpc import CASES, GOLDEN_PATH, case_name, measure_case

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
