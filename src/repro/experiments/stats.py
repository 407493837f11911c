"""Deterministic, dependency-light statistics for sweep analysis.

The analysis layer refuses to call a winner from point estimates; this
module supplies the machinery that makes "A beats B" falsifiable:

* :func:`mann_whitney_u` — the two-sided Mann–Whitney U rank test
  (exact small-sample distribution when tie-free, tie-corrected normal
  approximation otherwise), the standard nonparametric test fuzzbench's
  ``stat_tests.py`` applies to per-trial fuzzing scores.
* :func:`holm_bonferroni` — step-down multiple-comparison correction,
  so sweeping twenty metrics does not manufacture one "significant"
  delta by chance.
* :func:`cliffs_delta` / :func:`a12` — ordinal effect sizes: how often
  a draw from A exceeds a draw from B, independent of scale.
* :func:`bootstrap_ci` / :func:`bootstrap_diff_ci` — percentile
  bootstrap confidence intervals with *explicitly* deterministic
  resampling (a vectorized SplitMix64 index stream, so the same seed
  reproduces the same interval on every numpy version).

Everything is pure: samples in, numbers out, no I/O, numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "StatsError",
    "MannWhitneyResult",
    "mann_whitney_u",
    "holm_bonferroni",
    "holm_reject",
    "cliffs_delta",
    "a12",
    "bootstrap_ci",
    "bootstrap_diff_ci",
    "rankdata",
]


class StatsError(ValueError):
    """A sample is empty, non-numeric, or otherwise untestable."""


def _as_sample(values: Sequence[float], name: str) -> np.ndarray:
    arr = np.asarray(list(values), dtype=float)
    if arr.ndim != 1:
        raise StatsError(f"{name} must be a flat sequence of numbers")
    if arr.size == 0:
        raise StatsError(f"{name} is empty; need at least one observation")
    if not np.all(np.isfinite(arr)):
        raise StatsError(f"{name} contains non-finite values")
    return arr


def rankdata(values: np.ndarray) -> np.ndarray:
    """Midranks (1-based, ties averaged) of ``values``."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=float)
    sorted_vals = values[order]
    # Tie runs share the mean of the ranks they span.
    i = 0
    while i < sorted_vals.size:
        j = i
        while j + 1 < sorted_vals.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


# ------------------------- Mann–Whitney U ------------------------------
@dataclass(frozen=True)
class MannWhitneyResult:
    """Two-sided Mann–Whitney U outcome for samples A and B."""

    u_a: float          # rank-sum statistic of sample A
    u_b: float          # n_a * n_b - u_a
    p_value: float      # two-sided
    method: str         # "exact" | "normal"

    @property
    def u(self) -> float:
        """The conventional test statistic: min(U_A, U_B)."""
        return min(self.u_a, self.u_b)


#: Largest per-sample size for which the tie-free exact distribution is
#: enumerated (the classic recurrence is O(n * m * n*m) — trivial here).
EXACT_LIMIT = 25


def _exact_u_counts(n: int, m: int) -> np.ndarray:
    """Number of rank arrangements per U value for sizes (n, m).

    ``counts[u]`` is the number of ways a tie-free merge of n and m
    observations yields statistic ``u`` for the first sample; the total
    is C(n+m, n).  Standard recurrence
    ``N(u; i, j) = N(u - j; i - 1, j) + N(u; i, j - 1)``
    (the new A-observation either outranks all j B-observations or the
    top B-observation outranks everything) evaluated bottom-up.
    """
    max_u = n * m
    row = [np.zeros(max_u + 1) for _ in range(m + 1)]
    for j in range(m + 1):
        row[j][0] = 1.0          # zero A-observations: U is always 0
    for _i in range(1, n + 1):
        new_row = [np.zeros(max_u + 1) for _ in range(m + 1)]
        new_row[0][0] = 1.0      # zero B-observations: U is always 0
        for j in range(1, m + 1):
            shifted = np.zeros(max_u + 1)
            shifted[j:] = row[j][: max_u + 1 - j]
            new_row[j] = shifted + new_row[j - 1]
        row = new_row
    return row[m]


def mann_whitney_u(
    sample_a: Sequence[float],
    sample_b: Sequence[float],
    method: str = "auto",
) -> MannWhitneyResult:
    """Two-sided Mann–Whitney U test between two independent samples.

    ``method`` is ``"auto"`` (exact when both samples are small and
    tie-free, else tie-corrected normal approximation with continuity
    correction), ``"exact"``, or ``"normal"``.  Identical samples — or
    any configuration whose rank variance is zero — report p = 1.0:
    no evidence of a difference, never a division by zero.

    The p-value depends on the data only through ranks, so it is
    invariant under strictly monotone transforms and symmetric under
    swapping the samples.
    """
    a = _as_sample(sample_a, "sample_a")
    b = _as_sample(sample_b, "sample_b")
    if method not in ("auto", "exact", "normal"):
        raise StatsError(
            f"method must be 'auto', 'exact', or 'normal', got {method!r}"
        )
    n_a, n_b = a.size, b.size
    pooled = np.concatenate([a, b])
    ranks = rankdata(pooled)
    r_a = float(np.sum(ranks[:n_a]))
    u_a = r_a - n_a * (n_a + 1) / 2.0
    u_b = n_a * n_b - u_a

    _, tie_counts = np.unique(pooled, return_counts=True)
    has_ties = bool(np.any(tie_counts > 1))

    if method == "exact" and has_ties:
        raise StatsError(
            "exact Mann-Whitney p-values are only defined without ties; "
            "use method='normal' (tie-corrected) instead"
        )
    use_exact = method == "exact" or (
        method == "auto"
        and not has_ties
        and max(n_a, n_b) <= EXACT_LIMIT
    )
    if use_exact:
        counts = _exact_u_counts(n_a, n_b)
        total = counts.sum()
        u_min = min(u_a, u_b)
        # Two-sided: double the tail containing min(U_A, U_B), capped.
        cdf = counts[: int(round(u_min)) + 1].sum() / total
        p = min(1.0, 2.0 * cdf)
        return MannWhitneyResult(u_a, u_b, p, "exact")

    n = n_a + n_b
    mu = n_a * n_b / 2.0
    tie_term = float(np.sum(tie_counts**3 - tie_counts))
    sigma_sq = n_a * n_b / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if sigma_sq <= 0:
        return MannWhitneyResult(u_a, u_b, 1.0, "normal")
    # Continuity correction shrinks |U - mu| by 1/2 toward the mean.
    z = (abs(u_a - mu) - 0.5) / math.sqrt(sigma_sq)
    z = max(z, 0.0)
    p = min(1.0, math.erfc(z / math.sqrt(2.0)))
    return MannWhitneyResult(u_a, u_b, p, "normal")


# ------------------ Holm–Bonferroni step-down correction ---------------
def holm_bonferroni(p_values: Sequence[float]) -> List[float]:
    """Holm step-down adjusted p-values (same order as the input).

    ``adjusted[i] >= p_values[i]`` always, so rejecting on the adjusted
    values can never reject a hypothesis the uncorrected test kept —
    the step-down only controls the family-wise error rate.
    """
    p = [float(v) for v in p_values]
    if not p:
        return []
    for v in p:
        if not (0.0 <= v <= 1.0) or math.isnan(v):
            raise StatsError(f"p-values must be in [0, 1], got {v!r}")
    m = len(p)
    order = sorted(range(m), key=lambda i: p[i])
    adjusted = [0.0] * m
    running = 0.0
    for rank, i in enumerate(order):
        running = max(running, (m - rank) * p[i])
        adjusted[i] = min(1.0, running)
    return adjusted


def holm_reject(p_values: Sequence[float], alpha: float = 0.05) -> List[bool]:
    """Which hypotheses Holm–Bonferroni rejects at level ``alpha``."""
    if not 0.0 < alpha < 1.0:
        raise StatsError(f"alpha must be in (0, 1), got {alpha!r}")
    return [adj <= alpha for adj in holm_bonferroni(p_values)]


# --------------------------- Effect sizes ------------------------------
def cliffs_delta(
    sample_a: Sequence[float], sample_b: Sequence[float]
) -> float:
    """Cliff's delta: P(a > b) - P(a < b) over all cross-sample pairs.

    In [-1, 1]; +1 when every A observation exceeds every B observation,
    -1 for the reverse, 0 for identical samples.
    """
    a = _as_sample(sample_a, "sample_a")
    b = _as_sample(sample_b, "sample_b")
    b_sorted = np.sort(b)
    # For each a: #(b < a) via left insertion, #(b <= a) via right.
    below = np.searchsorted(b_sorted, a, side="left")
    not_above = np.searchsorted(b_sorted, a, side="right")
    greater = float(np.sum(below))
    less = float(np.sum(b.size - not_above))
    return (greater - less) / (a.size * b.size)


def a12(sample_a: Sequence[float], sample_b: Sequence[float]) -> float:
    """Vargha–Delaney Â12: P(a > b) + P(a == b)/2, in [0, 1].

    0.5 means stochastic equality; the conventional magnitude bands are
    0.56 (small), 0.64 (medium), 0.71 (large).
    """
    return (cliffs_delta(sample_a, sample_b) + 1.0) / 2.0


# ------------------------ Bootstrap intervals --------------------------
_MASK64 = (1 << 64) - 1


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized SplitMix64 mix — a fixed, version-proof bit stream."""
    z = (x + np.uint64(0x9E3779B97F4A7C15)) & np.uint64(_MASK64)
    z = ((z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)) & np.uint64(_MASK64)
    z = ((z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)) & np.uint64(_MASK64)
    return z ^ (z >> np.uint64(31))


def _resample_indices(n: int, resamples: int, seed: int) -> np.ndarray:
    """(resamples, n) index matrix from a seeded SplitMix64 counter.

    numpy's ``Generator`` streams are not guaranteed stable across
    library versions; this is, which keeps committed golden reports
    byte-stable.  Modulo bias at n << 2**64 is far below bootstrap
    noise.
    """
    # Python-int multiply, then mask: numpy warns on wrapping scalars.
    base = np.uint64((seed * 0x2545F4914F6CDD1D) & _MASK64)
    counters = (base + np.arange(resamples * n, dtype=np.uint64)) & np.uint64(_MASK64)
    draws = _splitmix64(counters)
    return (draws % np.uint64(n)).astype(np.intp).reshape(resamples, n)


Statistic = Union[str, Callable[[np.ndarray], float]]

_STATISTICS = {
    "median": np.median,
    "mean": np.mean,
}


def _row_statistic(statistic: Statistic) -> Callable[[np.ndarray], np.ndarray]:
    """A function giving ``statistic`` of each row of a 2-D array.

    A named statistic reduces all rows in one numpy call, which gives
    the same floats as reducing each row on its own; a callable is
    applied row by row.
    """
    if callable(statistic):
        return lambda rows: np.asarray([float(statistic(row)) for row in rows])
    try:
        fn = _STATISTICS[statistic]
    except KeyError:
        raise StatsError(
            f"unknown statistic {statistic!r}; "
            f"options: {sorted(_STATISTICS)} or a callable"
        ) from None
    return lambda rows: fn(rows, axis=1)


def bootstrap_ci(
    sample: Sequence[float],
    statistic: Statistic = "median",
    confidence: float = 0.95,
    resamples: int = 2000,
    seed: int = 0,
) -> Tuple[float, float]:
    """Seeded percentile-bootstrap confidence interval for a statistic."""
    a = _as_sample(sample, "sample")
    if not 0.0 < confidence < 1.0:
        raise StatsError(f"confidence must be in (0, 1), got {confidence!r}")
    if resamples < 1:
        raise StatsError(f"resamples must be >= 1, got {resamples}")
    reduce_rows = _row_statistic(statistic)
    stats = reduce_rows(a[_resample_indices(a.size, resamples, seed)])
    tail = (100.0 - 100.0 * confidence) / 2.0
    lo, hi = np.percentile(stats, [tail, 100.0 - tail])
    return float(lo), float(hi)


def bootstrap_diff_ci(
    sample_a: Sequence[float],
    sample_b: Sequence[float],
    statistic: Statistic = "median",
    confidence: float = 0.95,
    resamples: int = 2000,
    seed: int = 0,
) -> Tuple[float, float]:
    """CI for ``statistic(A) - statistic(B)`` under independent resampling.

    The two index streams derive from disjoint seeded counters, so the
    interval is deterministic for a given (samples, seed) pair.
    """
    a = _as_sample(sample_a, "sample_a")
    b = _as_sample(sample_b, "sample_b")
    if not 0.0 < confidence < 1.0:
        raise StatsError(f"confidence must be in (0, 1), got {confidence!r}")
    if resamples < 1:
        raise StatsError(f"resamples must be >= 1, got {resamples}")
    reduce_rows = _row_statistic(statistic)
    idx_a = _resample_indices(a.size, resamples, seed)
    idx_b = _resample_indices(b.size, resamples, seed ^ 0x5DEECE66D)
    diffs = reduce_rows(a[idx_a]) - reduce_rows(b[idx_b])
    tail = (100.0 - 100.0 * confidence) / 2.0
    lo, hi = np.percentile(diffs, [tail, 100.0 - tail])
    return float(lo), float(hi)
