"""Tests for the discrete-event engine."""

import pytest

from repro.sim.component import Component
from repro.sim.engine import Simulator


def test_time_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0
    assert sim.pending == 0


def test_schedule_and_run_advances_time():
    sim = Simulator()
    fired = []
    sim.schedule_after(1_000, fired.append, ("a",))
    sim.schedule_after(500, fired.append, ("b",))
    executed = sim.run()
    assert executed == 2
    assert fired == ["b", "a"]
    assert sim.now == 1_000


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule_after(100, fired.append, (i,))
    sim.run()
    assert fired == list(range(10))


def test_negative_delay_rejected():
    # Component.schedule holds the engine's only negative-delay guard.
    sim = Simulator()
    comp = Component(sim, "c")
    with pytest.raises(ValueError, match="c: cannot schedule into the past"):
        comp.schedule(-1, lambda: None)
    assert sim.pending == 0


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 4:
            sim.schedule_after(10, chain, (n + 1,))

    sim.schedule_after(0, chain, (0,))
    sim.run()
    assert fired == [0, 1, 2, 3, 4]
    assert sim.now == 40


# ----------------------------------------------------------------------
# Determinism: same-timestamp FIFO by sequence number
# ----------------------------------------------------------------------

def test_fifo_order_survives_entry_pool_reuse():
    # Drain once, then schedule again: a second drain of fresh entries
    # keeps same-time events in FIFO order.
    sim = Simulator()
    fired = []
    for i in range(20):
        sim.schedule_after(10, fired.append, (i,))
    sim.run()
    fired.clear()
    for i in range(20):
        sim.schedule_after(10, fired.append, (i,))
    sim.run()
    assert fired == list(range(20))
