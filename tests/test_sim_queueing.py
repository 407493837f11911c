"""Tests for bounded queues."""

import pytest

from repro.sim.queueing import BoundedQueue, QueueFullError, drain


def test_queue_fifo_order():
    q = BoundedQueue(4)
    for i in range(4):
        q.push(i)
    assert drain(q) == [0, 1, 2, 3]


def test_queue_full_raises():
    q = BoundedQueue(1)
    q.push("a")
    assert q.full
    with pytest.raises(QueueFullError):
        q.push("b")


def test_queue_try_push():
    q = BoundedQueue(1)
    assert q.try_push(1)
    assert not q.try_push(2)
    assert len(q) == 1


def test_queue_occupancy_stats():
    q = BoundedQueue(8)
    for i in range(5):
        q.push(i)
    q.pop()
    assert q.max_occupancy == 5
    assert q.total_pushed == 5


def test_queue_pop_empty_raises():
    q = BoundedQueue(1)
    with pytest.raises(IndexError):
        q.pop()
    with pytest.raises(IndexError):
        q.peek()


def test_queue_invalid_capacity():
    with pytest.raises(ValueError):
        BoundedQueue(0)


# ------------------------- drop policy (faults) ------------------------
def test_queue_drop_policy_counts_instead_of_raising():
    queue = BoundedQueue(2, "lossy", policy="drop")
    assert queue.push("a") is True
    assert queue.push("b") is True
    assert queue.push("c") is False
    assert queue.dropped == 1
    assert queue.total_pushed == 2
    assert len(queue) == 2
    queue.pop()
    assert queue.push("d") is True
    assert queue.dropped == 1


def test_queue_default_policy_still_raises():
    queue = BoundedQueue(1, "strict")
    assert queue.policy == "raise"
    assert queue.push("a") is True
    with pytest.raises(QueueFullError):
        queue.push("b")
    assert queue.dropped == 0


def test_queue_rejects_unknown_policy():
    with pytest.raises(ValueError, match="policy"):
        BoundedQueue(1, "x", policy="discard")


def test_try_push_never_counts_drops():
    queue = BoundedQueue(1, "probe", policy="drop")
    queue.push("a")
    assert not queue.try_push("b")
    assert queue.dropped == 0
