"""Known-answer and property-based tests for the pure stats core.

The known-answer section pins ``repro.experiments.stats`` against
hand-computed values and scipy outputs precomputed offline (the
container deliberately does not import scipy at test time), so the
implementation cannot drift silently.  The hypothesis section checks
the invariants every rank-based test must satisfy regardless of data.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.stats import (
    EXACT_LIMIT,
    StatsError,
    _exact_u_counts,
    _resample_indices,
    _row_statistic,
    a12,
    bootstrap_ci,
    bootstrap_diff_ci,
    cliffs_delta,
    holm_bonferroni,
    holm_reject,
    mann_whitney_u,
    rankdata,
)


# ------------------------- known-answer tests --------------------------
class TestRankdata:
    def test_distinct_values_rank_by_order(self):
        ranks = rankdata(np.asarray([30.0, 10.0, 20.0]))
        assert list(ranks) == [3.0, 1.0, 2.0]

    def test_ties_get_midranks(self):
        # Two values tied for ranks 2 and 3 both get 2.5.
        ranks = rankdata(np.asarray([1.0, 5.0, 5.0, 9.0]))
        assert list(ranks) == [1.0, 2.5, 2.5, 4.0]


class TestExactDistribution:
    def test_1v1_distribution(self):
        # One comparison: U is 0 or 1, each once.
        assert list(_exact_u_counts(1, 1)) == [1, 1]

    def test_2v1_distribution(self):
        # Three placements of the singleton: U in {0, 1, 2} once each.
        assert list(_exact_u_counts(2, 1)) == [1, 1, 1]

    def test_2v2_distribution(self):
        # C(4,2)=6 orderings over U in 0..4: 1,1,2,1,1.
        assert list(_exact_u_counts(2, 2)) == [1, 1, 2, 1, 1]

    def test_counts_sum_to_binomial(self):
        counts = _exact_u_counts(5, 7)
        assert counts.sum() == math.comb(12, 5)
        # The U distribution is symmetric around n*m/2.
        assert list(counts) == list(counts[::-1])


class TestMannWhitneyKnownAnswers:
    """Values pinned against scipy.stats.mannwhitneyu (precomputed)."""

    def test_small_n_exact(self):
        result = mann_whitney_u([1.0, 2.0, 5.0], [3.0, 4.0, 6.0, 7.0])
        assert result.method == "exact"
        assert result.u_a == 2.0
        assert result.p_value == pytest.approx(0.22857142857142856)

    def test_disjoint_exact(self):
        result = mann_whitney_u(
            [1.0, 2.0, 3.0, 4.0], [10.0, 11.0, 12.0, 13.0]
        )
        assert result.method == "exact"
        assert result.u_a == 0.0
        # 2 / C(8,4) = 2/70.
        assert result.p_value == pytest.approx(0.02857142857142857)

    def test_interleaved_exact(self):
        result = mann_whitney_u(
            [1.0, 3.0, 5.0, 7.0, 9.0], [2.0, 4.0, 6.0, 8.0, 10.0]
        )
        assert result.method == "exact"
        assert result.u_a == 10.0
        assert result.p_value == pytest.approx(0.6904761904761905)

    def test_tie_corrected_normal(self):
        # Ties force the tie-corrected normal approximation.
        result = mann_whitney_u(
            [1.0, 2.0, 2.0, 3.0, 5.0, 5.0], [2.0, 3.0, 3.0, 5.0, 6.0, 7.0]
        )
        assert result.method == "normal"
        assert result.u_a == 10.0
        assert result.p_value == pytest.approx(0.21983094556933913)

    def test_large_n_normal(self):
        a = [float(i) for i in range(30)]
        b = [i + 3.7 for i in a]
        result = mann_whitney_u(a, b)
        assert result.method == "normal"
        assert result.u_a == 351.0
        assert result.p_value == pytest.approx(0.14531912724086543)

    def test_forced_normal_matches_scipy_on_tie_free_data(self):
        result = mann_whitney_u(
            [1.0, 2.0, 5.0], [3.0, 4.0, 6.0, 7.0], method="normal"
        )
        assert result.p_value == pytest.approx(0.2159249389401403)

    def test_u_statistics_are_complementary(self):
        result = mann_whitney_u([1.0, 2.0, 3.0], [4.0, 5.0])
        assert result.u_a + result.u_b == 3 * 2
        assert result.u == min(result.u_a, result.u_b)

    def test_exact_with_ties_raises(self):
        with pytest.raises(StatsError, match="ties"):
            mann_whitney_u([1.0, 2.0], [2.0, 3.0], method="exact")

    def test_unknown_method_raises(self):
        with pytest.raises(StatsError, match="method"):
            mann_whitney_u([1.0], [2.0], method="bogus")

    def test_empty_sample_raises(self):
        with pytest.raises(StatsError):
            mann_whitney_u([], [1.0])

    def test_non_finite_raises(self):
        with pytest.raises(StatsError):
            mann_whitney_u([1.0, float("nan")], [2.0])

    def test_nested_sequence_raises(self):
        with pytest.raises(StatsError, match="flat sequence"):
            mann_whitney_u([[1.0, 2.0]], [3.0])

    def test_auto_switches_to_normal_above_exact_limit(self):
        a = [float(i) for i in range(EXACT_LIMIT + 1)]
        b = [i + 0.5 for i in a]
        assert mann_whitney_u(a, b).method == "normal"


class TestHolmBonferroni:
    def test_known_adjustment(self):
        # Sorted: 0.01*3=0.03, then max(0.03, 0.02*2)=0.04, then
        # max(0.04, 0.04*1)=0.04; reported in input order.
        adjusted = holm_bonferroni([0.04, 0.01, 0.02])
        assert adjusted == pytest.approx([0.04, 0.03, 0.04])

    def test_adjustment_clips_at_one(self):
        # 0.8*2 clips to 1.0; the running max then pins 0.9*1 at 1.0 too.
        assert holm_bonferroni([0.9, 0.8]) == pytest.approx([1.0, 1.0])

    def test_empty_input(self):
        assert holm_bonferroni([]) == []

    def test_invalid_p_value_raises(self):
        with pytest.raises(StatsError):
            holm_bonferroni([0.5, 1.5])

    def test_reject_uses_adjusted_values(self):
        assert holm_reject([0.01, 0.04, 0.6], alpha=0.05) == [
            True, False, False,
        ]

    def test_reject_invalid_alpha_raises(self):
        with pytest.raises(StatsError, match="alpha"):
            holm_reject([0.01], alpha=0.0)


class TestEffectSizes:
    def test_cliffs_delta_known_value(self):
        # 9 pairs: a>b in 6, a<b in 2, tied in 1 -> (6-2)/9.
        delta = cliffs_delta([2.0, 4.0, 6.0], [1.0, 3.0, 4.0])
        assert delta == pytest.approx((6 - 2) / 9)

    def test_a12_is_rescaled_delta(self):
        a, b = [2.0, 4.0, 6.0], [1.0, 3.0, 4.0]
        assert a12(a, b) == pytest.approx((cliffs_delta(a, b) + 1) / 2)


class TestBootstrap:
    def test_same_seed_is_deterministic(self):
        sample = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
        assert bootstrap_ci(sample, seed=7) == bootstrap_ci(sample, seed=7)

    def test_different_seeds_differ(self):
        sample = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
        assert bootstrap_ci(sample, seed=1) != bootstrap_ci(sample, seed=2)

    def test_index_stream_is_pinned(self):
        # The SplitMix64 counter stream is part of the golden-report
        # contract: these indices must never change across versions.
        idx = _resample_indices(5, 2, seed=0)
        assert idx.tolist() == [[0, 0, 0, 3, 3], [3, 2, 2, 2, 3]]

    def test_ci_brackets_the_statistic_for_tight_data(self):
        lo, hi = bootstrap_ci([10.0, 10.1, 9.9, 10.05, 9.95], "mean")
        assert 9.9 <= lo <= hi <= 10.1

    def test_diff_ci_sign_for_separated_samples(self):
        lo, hi = bootstrap_diff_ci(
            [10.0, 11.0, 10.5, 10.2], [1.0, 1.5, 1.2, 0.9]
        )
        assert lo > 0 and hi > lo

    def test_callable_statistic(self):
        lo, hi = bootstrap_ci([1.0, 2.0, 3.0], statistic=lambda a: a.max())
        assert hi <= 3.0

    def test_invalid_confidence_raises(self):
        with pytest.raises(StatsError):
            bootstrap_ci([1.0, 2.0], confidence=1.0)

    def test_invalid_resamples_raises(self):
        with pytest.raises(StatsError):
            bootstrap_ci([1.0, 2.0], resamples=0)

    def test_unknown_statistic_raises(self):
        with pytest.raises(StatsError):
            bootstrap_ci([1.0, 2.0], statistic="mode")

    def test_diff_ci_invalid_args_raise(self):
        with pytest.raises(StatsError):
            bootstrap_diff_ci([1.0], [2.0], confidence=0.0)
        with pytest.raises(StatsError):
            bootstrap_diff_ci([1.0], [2.0], resamples=0)


def _per_row(sample, statistic, seed, resamples=400):
    """The reference: one statistic call per resample row."""
    fn = {"median": np.median, "mean": np.mean}[statistic]
    a = np.asarray(sample, dtype=float)
    idx = _resample_indices(a.size, resamples, seed)
    return np.asarray([float(fn(a[row])) for row in idx])


def _interval(values):
    """The percentile interval at confidence 0.95: the 2.5th and 97.5th percentiles."""
    lo, hi = np.percentile(values, [2.5, 97.5])
    return float(lo), float(hi)


def _sample(n, salt):
    """A fixed sample of ``n`` values with ties (rounded to 0.5)."""
    return [round(math.sin(i * 12.9898 + salt) * 437.5) / 2 for i in range(n)]


@pytest.mark.parametrize("statistic", ["median", "mean"])
@pytest.mark.parametrize("n", [1, 2, 3, 150, 151])
def test_named_statistics_reduce_all_rows_as_the_per_row_loop(n, statistic):
    a, b = _sample(n, 1.0), _sample(n + 1, 2.0)
    rows = np.asarray(a)[_resample_indices(n, 400, 3)]
    assert np.array_equal(_row_statistic(statistic)(rows), _per_row(a, statistic, 3))
    assert bootstrap_ci(a, statistic, resamples=400, seed=3) == _interval(
        _per_row(a, statistic, 3)
    )
    assert bootstrap_diff_ci(a, b, statistic, resamples=400, seed=3) == _interval(
        _per_row(a, statistic, 3) - _per_row(b, statistic, 3 ^ 0x5DEECE66D)
    )


@pytest.mark.parametrize("confidence, tail", [(0.95, 2.5), (0.90, 5.0), (0.99, 0.5)])
def test_interval_ends_are_the_exact_percentiles(confidence, tail):
    """``(1 - 0.95) / 2 * 100`` is 2.500000000000002, not 2.5: at n=2 it
    moved the difference of means' lower end off ``np.percentile(..., 2.5)``."""
    a, b = _sample(2, 1.0), _sample(3, 2.0)
    diffs = _per_row(a, "mean", 3) - _per_row(b, "mean", 3 ^ 0x5DEECE66D)
    expected = tuple(float(v) for v in np.percentile(diffs, [tail, 100.0 - tail]))
    assert bootstrap_diff_ci(
        a, b, "mean", confidence=confidence, resamples=400, seed=3
    ) == expected


# ------------------------- property-based tests ------------------------
samples = st.lists(
    st.floats(
        min_value=-1e6, max_value=1e6,
        allow_nan=False, allow_infinity=False,
    ),
    min_size=2, max_size=20,
)


@settings(deadline=None, max_examples=60)
@given(samples, samples)
def test_p_value_symmetric_under_sample_swap(a, b):
    forward = mann_whitney_u(a, b)
    backward = mann_whitney_u(b, a)
    assert forward.p_value == pytest.approx(backward.p_value)
    assert forward.u_a == pytest.approx(backward.u_b)


# Integer-valued samples keep strictly monotone maps exact in float
# arithmetic; arbitrary floats can collapse into ties under a transform
# (e.g. a subnormal absorbed by `3*x + 11`), which changes the ranks.
int_samples = st.lists(
    st.integers(min_value=-10**6, max_value=10**6).map(float),
    min_size=2, max_size=20,
)


@settings(deadline=None, max_examples=60)
@given(int_samples, int_samples)
def test_p_value_invariant_under_monotone_transform(a, b):
    base = mann_whitney_u(a, b)
    # Strictly increasing affine map preserves all rank structure.
    transformed = mann_whitney_u(
        [3.0 * x + 11.0 for x in a], [3.0 * x + 11.0 for x in b]
    )
    assert transformed.p_value == pytest.approx(base.p_value)
    assert transformed.method == base.method


@settings(deadline=None, max_examples=60)
@given(samples)
def test_identical_samples_give_p_one_and_delta_zero(a):
    result = mann_whitney_u(a, list(a))
    assert result.p_value == 1.0
    assert cliffs_delta(a, list(a)) == 0.0


@settings(deadline=None, max_examples=60)
@given(samples, samples)
def test_cliffs_delta_bounded(a, b):
    delta = cliffs_delta(a, b)
    assert -1.0 <= delta <= 1.0
    assert 0.0 <= a12(a, b) <= 1.0


@settings(deadline=None, max_examples=60)
@given(samples)
def test_cliffs_delta_is_plus_minus_one_on_disjoint_samples(a):
    # Shift b strictly above every element of a.
    offset = max(a) - min(a) + 1.0
    b = [x + offset for x in a]
    assert cliffs_delta(b, a) == 1.0
    assert cliffs_delta(a, b) == -1.0


@settings(deadline=None, max_examples=60)
@given(
    st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        min_size=1, max_size=12,
    ),
    st.floats(min_value=0.01, max_value=0.2),
)
def test_holm_never_rejects_more_than_uncorrected(p_values, alpha):
    adjusted = holm_bonferroni(p_values)
    rejected = holm_reject(p_values, alpha)
    for raw, adj, rej in zip(p_values, adjusted, rejected):
        assert adj >= raw - 1e-12
        if rej:  # Holm rejection implies uncorrected rejection
            assert raw <= alpha


@settings(deadline=None, max_examples=30)
@given(samples, st.integers(min_value=0, max_value=2**31 - 1))
def test_bootstrap_ci_ordered_and_deterministic(a, seed):
    lo, hi = bootstrap_ci(a, resamples=50, seed=seed)
    assert lo <= hi
    assert (lo, hi) == bootstrap_ci(a, resamples=50, seed=seed)
