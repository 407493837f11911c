"""Tests for statistics primitives."""

import pytest

from repro.sim.stats import Histogram


def test_histogram_median_odd_even():
    h = Histogram()
    h.extend([3, 1, 2])
    assert h.median == 2
    h.add(4)
    assert h.median == pytest.approx(2.5)


def test_histogram_percentiles():
    h = Histogram()
    h.extend(range(1, 101))
    assert h.percentile(0) == 1
    assert h.percentile(100) == 100
    assert h.p25 == pytest.approx(25.75)
    assert h.p75 == pytest.approx(75.25)


def test_histogram_tail_percentiles():
    h = Histogram()
    h.extend(range(1, 1001))
    assert h.p99 == pytest.approx(990.01)
    assert h.p999 == pytest.approx(999.001)
    single = Histogram()
    single.add(5)
    assert single.p99 == 5
    assert single.p999 == 5


def test_histogram_min_max_mean():
    h = Histogram()
    h.extend([10, 20, 30])
    assert h.min == 10
    assert h.max == 30
    assert h.mean == 20


def test_histogram_empty_raises():
    h = Histogram()
    with pytest.raises(ValueError):
        h.median
    with pytest.raises(ValueError):
        h.mean


def test_histogram_bad_percentile():
    h = Histogram()
    h.add(1)
    with pytest.raises(ValueError):
        h.percentile(101)


def test_histogram_summary_keys():
    h = Histogram()
    h.extend([1, 2, 3, 4])
    summary = h.summary()
    assert set(summary) == {
        "count", "min", "p25", "median", "p75", "p99", "p999", "max", "mean",
    }
    assert summary["count"] == 4


def test_histogram_reset():
    h = Histogram()
    h.add(1)
    h.reset()
    assert len(h) == 0


def test_histogram_stddev():
    h = Histogram()
    h.extend([2, 4, 4, 4, 5, 5, 7, 9])
    assert h.stddev == pytest.approx(2.138, rel=1e-3)
