"""The paper experiments' work counters against their committed golden.

``tests/data/golden_paper.json`` pins, per id of ``PAPER_EXPERIMENT_IDS``,
the summed engine, LLC, HMC and DCOH counters of every system the
experiment builds or forks.  Counts are exact on any host, so this is
the perf gate for simulator work: one extra event per DMA transfer or
per LLC request fails it.  Regenerate with ``PYTHONPATH=src python
tests/golden_paper.py`` only on a deliberate behaviour change, and say
why the counts moved.
"""

import json

import pytest

from golden_paper import GOLDEN_PATH, measure

from repro.cache.llc import SharedLLC
from repro.devices.dma import DmaEngine
from repro.harness.experiments import PAPER_EXPERIMENT_IDS, run_experiment
from repro.nic.cxl_nic import CxlRaoNic
from repro.sim.engine import Simulator

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


def test_fig17_simulates_the_rao_warm_up_once(monkeypatch):
    """fig17 warms one CXL NIC and forks it per pattern.

    A fork carries its parent's counters, so the golden counts the
    warm-up once per pattern and cannot see the saving.  Count the
    warm-ups and the events actually drained instead: the golden's
    385,807 minus five of the six 16,384-event warm-ups.
    """
    warms, drained = [0], [0]
    warm, run = CxlRaoNic.warm, Simulator.run

    def counting_warm(self, *args, **kwargs):
        warms[0] += 1
        return warm(self, *args, **kwargs)

    def counting_run(self, *args, **kwargs):
        executed = run(self, *args, **kwargs)
        drained[0] += executed
        return executed

    monkeypatch.setattr(CxlRaoNic, "warm", counting_warm)
    monkeypatch.setattr(Simulator, "run", counting_run)
    run_experiment("fig17")
    assert warms[0] == 1
    assert drained[0] == GOLDEN["fig17"]["sim.executed"] - 5 * 16_384 == 303_887
