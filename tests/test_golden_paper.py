"""The paper experiments' work counters against their committed golden.

``tests/data/golden_paper.json`` pins, per id of ``PAPER_EXPERIMENT_IDS``,
the summed engine, LLC, HMC and DCOH counters of every system the
experiment builds.  Counts are exact on any host, so this is the perf
gate for simulator work: one extra event per DMA transfer or per LLC
request fails it.  Regenerate with ``PYTHONPATH=src python
tests/golden_paper.py`` only on a deliberate behaviour change, and say
why the counts moved.
"""

import json

import pytest

from golden_paper import GOLDEN_PATH, measure

from repro.cache.llc import SharedLLC
from repro.devices.dma import DmaEngine
from repro.harness.experiments import PAPER_EXPERIMENT_IDS

GOLDEN = json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_paper_experiment_in_order():
    assert list(GOLDEN) == list(PAPER_EXPERIMENT_IDS)


@pytest.mark.parametrize("exp_id", PAPER_EXPERIMENT_IDS)
def test_experiment_matches_golden(exp_id):
    assert measure(exp_id) == GOLDEN[exp_id]


def _noop() -> None:
    pass


@pytest.mark.parametrize(
    "exp_id, owner, method",
    [("fig14", DmaEngine, "transfer"), ("fig13", SharedLLC, "_start")],
    ids=["dma-transfer", "llc-request"],
)
def test_one_extra_event_per_call_breaks_the_golden(monkeypatch, exp_id, owner, method):
    original = getattr(owner, method)
    calls = [0]

    def with_extra_event(self, *args, **kwargs):
        calls[0] += 1
        self.sim.schedule_after(0, _noop)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(owner, method, with_extra_event)
    counters = measure(exp_id)
    assert counters != GOLDEN[exp_id]
    assert counters["sim.executed"] == GOLDEN[exp_id]["sim.executed"] + calls[0]
