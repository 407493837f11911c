"""Tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Simulator


def test_time_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0
    assert sim.pending == 0


def test_schedule_and_run_advances_time():
    sim = Simulator()
    fired = []
    sim.schedule(1_000, fired.append, "a")
    sim.schedule(500, fired.append, "b")
    executed = sim.run()
    assert executed == 2
    assert fired == ["b", "a"]
    assert sim.now == 1_000


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(100, fired.append, i)
    sim.run()
    assert fired == list(range(10))


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-1, lambda: None)


def test_schedule_at_absolute_time():
    sim = Simulator()
    seen = []
    sim.schedule_at(5_000, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [5_000]


def test_cancel_prevents_firing():
    sim = Simulator()
    fired = []
    event = sim.schedule(100, fired.append, "x")
    event.cancel()
    sim.run()
    assert fired == []
    assert sim.executed == 0


def test_run_until_bound():
    sim = Simulator()
    fired = []
    sim.schedule(100, fired.append, 1)
    sim.schedule(200, fired.append, 2)
    sim.schedule(300, fired.append, 3)
    sim.run(until_ps=250)
    assert fired == [1, 2]
    assert sim.now == 250
    sim.run()
    assert fired == [1, 2, 3]


def test_run_max_events():
    sim = Simulator()
    fired = []
    for i in range(5):
        sim.schedule(10 * (i + 1), fired.append, i)
    sim.run(max_events=3)
    assert fired == [0, 1, 2]


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 4:
            sim.schedule(10, chain, n + 1)

    sim.schedule(0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3, 4]
    assert sim.now == 40


def test_step_fires_exactly_one():
    sim = Simulator()
    fired = []
    sim.schedule(10, fired.append, "a")
    sim.schedule(20, fired.append, "b")
    assert sim.step()
    assert fired == ["a"]
    assert sim.step()
    assert not sim.step()


def test_reset_clears_calendar():
    sim = Simulator()
    sim.schedule(10, lambda: None)
    sim.run()
    sim.reset()
    assert sim.now == 0
    assert sim.pending == 0
    assert sim.executed == 0


def test_run_until_with_empty_calendar_advances_clock():
    sim = Simulator()
    sim.run(until_ps=9_999)
    assert sim.now == 9_999


# ----------------------------------------------------------------------
# run() horizon/max_events interaction (unified time-advance logic)
# ----------------------------------------------------------------------

def test_run_max_events_then_horizon_advances_clock():
    # max_events stops the run, and every remaining event lies beyond
    # the horizon: the clock must still advance to until_ps.
    sim = Simulator()
    fired = []
    sim.schedule(100, fired.append, 1)
    sim.schedule(200, fired.append, 2)
    sim.schedule(9_000, fired.append, 3)
    executed = sim.run(until_ps=500, max_events=2)
    assert executed == 2
    assert fired == [1, 2]
    assert sim.now == 500


def test_run_max_events_with_pending_work_before_horizon_holds_clock():
    # max_events stops the run while live events remain inside the
    # horizon: time must NOT jump past them.
    sim = Simulator()
    fired = []
    for i in range(4):
        sim.schedule(100 * (i + 1), fired.append, i)
    sim.run(until_ps=1_000, max_events=2)
    assert fired == [0, 1]
    assert sim.now == 200
    sim.run(until_ps=1_000)
    assert fired == [0, 1, 2, 3]
    assert sim.now == 1_000


def test_run_max_events_exact_drain_advances_to_horizon():
    sim = Simulator()
    fired = []
    sim.schedule(100, fired.append, 1)
    sim.run(until_ps=5_000, max_events=1)
    assert fired == [1]
    assert sim.now == 5_000


def test_run_horizon_ignores_cancelled_events_beyond_it():
    sim = Simulator()
    fired = []
    sim.schedule(100, fired.append, 1)
    tail = sim.schedule(400, fired.append, 2)
    tail.cancel()
    sim.run(until_ps=300)
    assert fired == [1]
    assert sim.now == 300


# ----------------------------------------------------------------------
# Determinism: same-timestamp FIFO by sequence number
# ----------------------------------------------------------------------

def test_fifo_order_survives_interleaved_fast_path():
    sim = Simulator()
    fired = []
    sim.schedule(100, fired.append, "a")
    sim.schedule_after(100, fired.append, ("b",))
    sim.schedule(100, fired.append, "c")
    sim.schedule_after(100, fired.append, ("d",))
    sim.run()
    assert fired == ["a", "b", "c", "d"]


def test_fifo_order_survives_cancellation():
    sim = Simulator()
    fired = []
    events = [sim.schedule(50, fired.append, i) for i in range(10)]
    for i in (1, 4, 7):
        events[i].cancel()
    sim.run()
    assert fired == [0, 2, 3, 5, 6, 8, 9]


def test_fifo_order_survives_reset():
    sim = Simulator()
    sim.schedule(10, lambda: None)
    sim.run()
    sim.reset()
    fired = []
    for i in range(5):
        sim.schedule(25, fired.append, i)
    sim.run()
    assert fired == list(range(5))
    assert sim.now == 25


def test_fifo_order_survives_entry_pool_reuse():
    # Drain once, then schedule again: a second drain of fresh entries
    # keeps same-time events in FIFO order.
    sim = Simulator()
    fired = []
    for i in range(20):
        sim.schedule(10, fired.append, i)
    sim.run()
    fired.clear()
    for i in range(20):
        sim.schedule(10, fired.append, i)
    sim.run()
    assert fired == list(range(20))


def test_cancel_heavy_calendar_compacts_and_preserves_order():
    sim = Simulator()
    fired = []
    events = [sim.schedule(1_000 + i, fired.append, i) for i in range(500)]
    for i, event in enumerate(events):
        if i % 10:
            event.cancel()
    # Lazy deletion compacted the mostly-dead calendar in place.
    assert sim.pending < 500
    sim.run()
    assert fired == [i for i in range(500) if i % 10 == 0]


def test_cancel_after_firing_is_harmless():
    sim = Simulator()
    fired = []
    event = sim.schedule(10, fired.append, "x")
    sim.run()
    event.cancel()  # stale handle: must not affect later events
    # A fired event is detached, so the stale cancel does not inflate
    # the lazy-deletion counter (which would trigger useless compaction
    # scans in cancellation-heavy workloads).
    assert sim._cancelled == 0
    sim.schedule(10, fired.append, "y")
    sim.run()
    assert fired == ["x", "y"]


def test_step_handles_fast_path_and_cancelled_events():
    sim = Simulator()
    fired = []
    dead = sim.schedule(5, fired.append, "dead")
    dead.cancel()
    sim.schedule_after(10, fired.append, ("fast",))
    assert sim.step()
    assert fired == ["fast"]
    assert sim.now == 10
    assert not sim.step()


def test_cancel_after_reset_is_harmless():
    sim = Simulator()
    event = sim.schedule(10, lambda: None)
    sim.reset()
    event.cancel()  # pre-reset handle: detached, no counter drift
    assert sim._cancelled == 0
    fired = []
    sim.schedule(10, fired.append, "z")
    sim.run()
    assert fired == ["z"]
