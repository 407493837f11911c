"""Tests for the component base class."""

from repro.sim.component import Component
from repro.sim.engine import Simulator


def test_component_schedule_runs_callback():
    sim = Simulator()
    comp = Component(sim, "c")
    seen = []
    comp.schedule(100, seen.append, "x")
    sim.run()
    assert seen == ["x"]
