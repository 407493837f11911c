"""Report generation over stored sweep runs.

:class:`RunReport` wraps one run directory's :class:`ResultStore` and
exposes analysis results as lazily-computed, memoised properties (the
shape fuzzbench's ``ExperimentResults`` uses for template-driven
reports): per-experiment calibration MAPE against the paper reference
series, wall-time aggregates, failure lists, and a markdown summary
table.  :func:`compare_runs` renders a markdown delta table (values
and wall-time speedups) between two stored runs.
"""

from __future__ import annotations

import itertools
import statistics
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro.calibration.metrics import series_mape
from repro.experiments.store import ResultStore, StoredResult
from repro.harness.tables import render_markdown_table

_PAPER_PREFIXES = ("paper_", "paper:")


def split_paper_series(
    series: Mapping[str, object],
) -> Tuple[Dict[str, object], Dict[str, object]]:
    """Partition a result's series into (measured, paper-reference).

    Experiments embed their reference data under ``paper_<name>`` or
    ``paper:<name>`` keys mirroring a measured series ``<name>``; those
    pairs are what calibration error is computed over.
    """
    measured: Dict[str, object] = {}
    paper: Dict[str, object] = {}
    for key, value in series.items():
        for prefix in _PAPER_PREFIXES:
            if key.startswith(prefix):
                paper[key[len(prefix):]] = value
                break
        else:
            if key == "paper":  # headline uses a bare "paper" column
                paper.update(
                    value if isinstance(value, Mapping) else {"paper": value}
                )
            else:
                measured[key] = value
    return measured, paper


def result_mape(record: StoredResult) -> Optional[float]:
    """Calibration MAPE for one stored result, or None without refs."""
    measured, paper = split_paper_series(record.series)
    if not paper:
        return None
    # A bare "paper" series (headline's shape) sits beside one measured
    # block whose keys mirror the reference's — descend into it.
    if len(measured) == 1 and not (
        {str(k) for k in paper} & {str(k) for k in measured}
    ):
        (only,) = measured.values()
        if isinstance(only, Mapping):
            measured = only
    try:
        return series_mape(measured, paper)
    except ValueError:
        return None


def numeric_series_means(series: Mapping[str, object]) -> Dict[str, float]:
    """Mean of each measured series' numeric leaves (paper refs skipped)."""
    measured, _ = split_paper_series(series)
    means: Dict[str, float] = {}
    for name, values in measured.items():
        if isinstance(values, Mapping):
            leaves = [
                float(v) for v in values.values()
                if isinstance(v, (int, float)) and not isinstance(v, bool)
            ]
        elif isinstance(values, (int, float)) and not isinstance(values, bool):
            leaves = [float(values)]
        else:
            leaves = []
        if leaves:
            means[name] = sum(leaves) / len(leaves)
    return means


class RunReport:
    """Lazily-computed analysis over one stored sweep run."""

    def __init__(self, store: Union[ResultStore, str, Path]):
        if not isinstance(store, ResultStore):
            store = ResultStore(store)
        self.store = store
        self.name = store.root.name

    @cached_property
    def records(self) -> List[StoredResult]:
        """Newest record per spec, stable order (experiment, hash)."""
        return sorted(
            self.store.latest().values(),
            key=lambda r: (r.experiment, r.spec_hash),
        )

    @cached_property
    def ok_records(self) -> List[StoredResult]:
        return [r for r in self.records if r.ok]

    @cached_property
    def failures(self) -> List[StoredResult]:
        return [r for r in self.records if not r.ok]

    @cached_property
    def experiments(self) -> List[str]:
        return sorted({r.experiment for r in self.records})

    @cached_property
    def mape_by_experiment(self) -> Dict[str, Optional[float]]:
        """Worst (max) calibration MAPE per experiment across its specs."""
        worst: Dict[str, Optional[float]] = {}
        for record in self.ok_records:
            value = result_mape(record)
            if value is None:
                worst.setdefault(record.experiment, None)
            else:
                prior = worst.get(record.experiment)
                worst[record.experiment] = (
                    value if prior is None else max(prior, value)
                )
        return worst

    @cached_property
    def wall_time_by_experiment(self) -> Dict[str, float]:
        """Mean wall time (s) per experiment over successful records.

        Failed specs die early with near-zero wall times that would
        drag the mean down; experiments with no successes fall back to
        the mean over their failed records.
        """
        ok: Dict[str, List[float]] = {}
        everything: Dict[str, List[float]] = {}
        for record in self.records:
            everything.setdefault(record.experiment, []).append(record.wall_time_s)
            if record.ok:
                ok.setdefault(record.experiment, []).append(record.wall_time_s)
        return {
            k: sum(ok.get(k, v)) / len(ok.get(k, v))
            for k, v in everything.items()
        }

    @cached_property
    def total_wall_time_s(self) -> float:
        return sum(r.wall_time_s for r in self.records)

    def profile_markdown(self, limit: int = 12) -> str:
        """Aggregated ``--profile`` attribution (empty without profiles).

        Sums per-component event counts and sampled callback time over
        every record that carries a profile payload, so a sweep run with
        ``repro sweep --profile`` reports where simulated-event time
        went across the whole run.
        """
        events: Dict[str, int] = {}
        sampled: Dict[str, float] = {}
        total_events = 0
        wall_s = 0.0
        profiled = 0
        for record in self.records:
            payload = record.profile
            if not isinstance(payload, dict):
                continue
            profiled += 1
            total_events += int(payload.get("total_events", 0))
            wall_s += float(payload.get("run_wall_s", 0.0))
            for row in payload.get("components", []):
                name = str(row.get("component"))
                events[name] = events.get(name, 0) + int(row.get("events", 0))
                sampled[name] = sampled.get(name, 0.0) + float(
                    row.get("sampled_time_s", 0.0)
                )
        if not profiled:
            return ""
        total_sampled = sum(sampled.values())
        ranked = sorted(
            events,
            key=lambda n: (-sampled.get(n, 0.0), -events[n], n),
        )
        rows = []
        for name in ranked[:limit]:
            frac = sampled.get(name, 0.0) / total_sampled if total_sampled else 0.0
            rows.append([name, events[name], f"{frac * 100:.1f}"])
        eps = (total_events / wall_s) if wall_s > 0 else 0.0
        title = (
            f"Simulator profile ({profiled} profiled record(s), "
            f"{total_events} events, {eps:,.0f} events/s)"
        )
        return render_markdown_table(
            ["component", "events", "time %"], rows, title=title
        )

    def markdown(self) -> str:
        """Per-experiment summary table for the whole run."""
        rows = []
        for experiment in self.experiments:
            records = [r for r in self.records if r.experiment == experiment]
            ok = sum(1 for r in records if r.ok)
            error = result_mape_text(self.mape_by_experiment.get(experiment))
            rows.append([
                experiment,
                len(records),
                ok,
                len(records) - ok,
                f"{self.wall_time_by_experiment[experiment]:.2f}",
                error,
            ])
        rows.append([
            "TOTAL",
            len(self.records),
            len(self.ok_records),
            len(self.failures),
            f"{self.total_wall_time_s:.2f}",
            "",
        ])
        return render_markdown_table(
            ["experiment", "specs", "ok", "failed", "mean wall (s)", "MAPE"],
            rows,
            title=f"Run report: {self.name}",
        )


def result_mape_text(value: Optional[float]) -> str:
    return f"{value * 100:.2f}%" if value is not None else "-"


# --------------------- Statistical run analysis ------------------------
@dataclass
class SampleGroup:
    """All repeats of one scenario (spec modulo the seed axis)."""

    key: str
    label: str
    experiment: str
    params: Dict[str, object]
    records: List[StoredResult] = field(default_factory=list)
    #: metric name -> one scalar per repeat, in (repeat, seed) order.
    metrics: Dict[str, List[float]] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.records)


@dataclass
class MetricComparison:
    """One significance-tested metric contrast between two groups."""

    experiment: str
    metric: str
    group_a: str
    group_b: str
    n_a: int
    n_b: int
    median_a: float
    median_b: float
    p_value: float                    # raw two-sided Mann-Whitney p
    a12: float                        # P(A > B) + P(A == B)/2
    delta: float                      # Cliff's delta
    ci_low: float                     # bootstrap CI on median(A)-median(B)
    ci_high: float
    p_adjusted: float = 1.0           # Holm-Bonferroni over the family
    significant: bool = False

    @property
    def verdict(self) -> str:
        """``A > B`` / ``B > A`` when significant, else ``ns``."""
        if not self.significant:
            return "ns"
        return (
            f"{self.group_a} > {self.group_b}"
            if self.a12 > 0.5
            else f"{self.group_b} > {self.group_a}"
        )


def group_samples(
    records: List[StoredResult],
) -> Dict[str, SampleGroup]:
    """Fold ok records into per-scenario sample groups.

    Records sharing a :attr:`StoredResult.group_key` are repeats of one
    measurement; each contributes one scalar per metric (the mean of
    that series' numeric leaves, matching :func:`compare_runs`).
    Samples are ordered by (repeat, seed, spec hash) so every analysis
    over the same store is deterministic.
    """
    groups: Dict[str, SampleGroup] = {}
    ordered = sorted(records, key=lambda r: (r.repeat, r.seed, r.spec_hash))
    for record in ordered:
        if not record.ok:
            continue
        group = groups.get(record.group_key)
        if group is None:
            group = SampleGroup(
                key=record.group_key,
                label=record.group_label,
                experiment=record.experiment,
                params={
                    k: v for k, v in record.params.items() if k != "seed"
                },
            )
            groups[record.group_key] = group
        group.records.append(record)
        for metric, value in numeric_series_means(record.series).items():
            group.metrics.setdefault(metric, []).append(value)
    return groups


class RunAnalysis:
    """Significance-tested comparison across one run's repeat groups.

    Lazily computed like :class:`RunReport` (the fuzzbench
    ``ExperimentResults`` shape): building the object costs nothing,
    each property materialises on first use, and the HTML renderer can
    therefore pull only what its template references.

    Within each experiment, every pair of sample groups is contrasted
    on every shared metric with a two-sided Mann-Whitney U test,
    Cliff's delta / Â12 effect sizes, and a seeded bootstrap CI on the
    median difference; Holm-Bonferroni correction runs across the
    *entire* family of (pair x metric) tests, so no single metric can
    fish its way to significance.  Groups with fewer than
    ``min_repeats`` samples are never tested — a point estimate gets
    reported as exactly that.
    """

    #: Metrics identical across every repeat and every group carry no
    #: information (op counts, configured sizes); they are excluded
    #: from testing but listed in :attr:`constant_metrics`.
    def __init__(
        self,
        run: Union[RunReport, ResultStore, str, Path],
        alpha: float = 0.05,
        min_repeats: int = 2,
        metrics: Optional[List[str]] = None,
        bootstrap_resamples: int = 2000,
        bootstrap_seed: int = 0,
    ):
        from repro.experiments.stats import StatsError

        if not 0.0 < alpha < 1.0:
            raise StatsError(f"alpha must be in (0, 1), got {alpha!r}")
        if min_repeats < 2:
            raise StatsError(
                f"min_repeats must be >= 2 (one sample per side cannot be "
                f"tested), got {min_repeats}"
            )
        self.report = run if isinstance(run, RunReport) else RunReport(run)
        self.alpha = alpha
        self.min_repeats = min_repeats
        self.metric_filter = list(metrics) if metrics else None
        self.bootstrap_resamples = bootstrap_resamples
        self.bootstrap_seed = bootstrap_seed

    @property
    def name(self) -> str:
        return self.report.name

    @cached_property
    def groups(self) -> List[SampleGroup]:
        """Sample groups, stable (experiment, label) order."""
        groups = group_samples(self.report.records)
        return sorted(groups.values(), key=lambda g: (g.experiment, g.label))

    @cached_property
    def testable_groups(self) -> List[SampleGroup]:
        return [g for g in self.groups if g.n >= self.min_repeats]

    @cached_property
    def declined(self) -> List[SampleGroup]:
        """Groups with too few repeats to test (reported, never tested)."""
        return [g for g in self.groups if g.n < self.min_repeats]

    def _metric_names(self, a: SampleGroup, b: SampleGroup) -> List[str]:
        shared = sorted(set(a.metrics) & set(b.metrics))
        if self.metric_filter is not None:
            shared = [m for m in shared if m in self.metric_filter]
        return shared

    @cached_property
    def constant_metrics(self) -> List[str]:
        """Metrics whose samples never vary anywhere — untestable."""
        seen: Dict[str, set] = {}
        for group in self.testable_groups:
            for metric, samples in group.metrics.items():
                seen.setdefault(metric, set()).update(samples)
        return sorted(m for m, values in seen.items() if len(values) == 1)

    @cached_property
    def comparisons(self) -> List[MetricComparison]:
        """Every (group pair x metric) contrast, Holm-corrected."""
        from repro.experiments.stats import (
            bootstrap_diff_ci,
            cliffs_delta,
            holm_bonferroni,
            mann_whitney_u,
        )

        comparisons: List[MetricComparison] = []
        by_experiment: Dict[str, List[SampleGroup]] = {}
        for group in self.testable_groups:
            by_experiment.setdefault(group.experiment, []).append(group)
        constant = set(self.constant_metrics)
        for experiment in sorted(by_experiment):
            for a, b in itertools.combinations(by_experiment[experiment], 2):
                for metric in self._metric_names(a, b):
                    if metric in constant:
                        continue
                    xs, ys = a.metrics[metric], b.metrics[metric]
                    result = mann_whitney_u(xs, ys)
                    delta = cliffs_delta(xs, ys)
                    ci_low, ci_high = bootstrap_diff_ci(
                        xs, ys,
                        resamples=self.bootstrap_resamples,
                        seed=self.bootstrap_seed,
                    )
                    comparisons.append(MetricComparison(
                        experiment=experiment,
                        metric=metric,
                        group_a=a.label,
                        group_b=b.label,
                        n_a=len(xs),
                        n_b=len(ys),
                        median_a=statistics.median(xs),
                        median_b=statistics.median(ys),
                        p_value=result.p_value,
                        a12=(delta + 1.0) / 2.0,
                        delta=delta,
                        ci_low=ci_low,
                        ci_high=ci_high,
                    ))
        if comparisons:
            adjusted = holm_bonferroni([c.p_value for c in comparisons])
            for comparison, p_adj in zip(comparisons, adjusted):
                comparison.p_adjusted = p_adj
                comparison.significant = p_adj <= self.alpha
        return comparisons

    @cached_property
    def significant(self) -> List[MetricComparison]:
        return [c for c in self.comparisons if c.significant]

    def markdown(self) -> str:
        """Markdown analysis: groups, verdicts, and declined scenarios."""
        sections: List[str] = []
        rows = [
            [g.label, g.experiment, g.n,
             "yes" if g.n >= self.min_repeats else "no (n<2)"]
            for g in self.groups
        ]
        if not rows:
            rows.append(["-", "no successful records", 0, "-"])
        sections.append(render_markdown_table(
            ["group", "experiment", "repeats", "testable"],
            rows,
            title=f"Analysis: {self.name}",
        ))
        if not self.testable_groups:
            sections.append(
                "No group has >= 2 repeats: every stored value is a point "
                "estimate, so this run declines to test for significance. "
                "Re-sweep with --repeats N (N >= 2) to make deltas "
                "falsifiable."
            )
            return "\n\n".join(sections)
        if self.comparisons:
            rows = []
            for c in self.comparisons:
                rows.append([
                    c.experiment, c.metric, c.group_a, c.group_b,
                    f"{c.n_a}/{c.n_b}",
                    f"{c.median_a:.4g}", f"{c.median_b:.4g}",
                    f"{c.a12:.2f}", f"{c.p_value:.2g}",
                    f"{c.p_adjusted:.2g}", c.verdict,
                ])
            sections.append(render_markdown_table(
                ["experiment", "metric", "A", "B", "n", "median A",
                 "median B", "A12", "p", "p(Holm)", "verdict"],
                rows,
                title="Pairwise Mann-Whitney contrasts "
                      f"(alpha={self.alpha:g}, Holm-corrected)",
            ))
            for c in self.significant:
                direction = ">" if c.a12 > 0.5 else "<"
                sections.append(
                    f"- **{c.metric}**: {c.group_a} {direction} {c.group_b} "
                    f"(p={c.p_adjusted:.2g} Holm-corrected, "
                    f"A12={c.a12:.2f}, "
                    f"median diff CI [{c.ci_low:.4g}, {c.ci_high:.4g}] "
                    f"over {c.n_a}/{c.n_b} repeats)"
                )
            if not self.significant:
                sections.append(
                    "No contrast survives Holm-Bonferroni correction at "
                    f"alpha={self.alpha:g}: the observed deltas are "
                    "consistent with noise."
                )
        else:
            sections.append(
                "Testable groups share no varying metrics: nothing to "
                "contrast."
            )
        if self.constant_metrics:
            sections.append(
                "Constant across all repeats (excluded from testing): "
                + ", ".join(f"`{m}`" for m in self.constant_metrics)
            )
        if self.declined:
            names = ", ".join(g.label for g in self.declined)
            sections.append(
                f"Declined (fewer than {self.min_repeats} repeats): {names}"
            )
        return "\n\n".join(sections)


def analyze_run(
    run: Union[RunReport, ResultStore, str, Path],
    alpha: float = 0.05,
    min_repeats: int = 2,
    metrics: Optional[List[str]] = None,
) -> RunAnalysis:
    """Convenience constructor mirroring :func:`compare_runs`'s shape."""
    return RunAnalysis(
        run, alpha=alpha, min_repeats=min_repeats, metrics=metrics
    )


def _cross_run_significance(
    a: RunReport, b: RunReport, alpha: float = 0.05
) -> str:
    """Significance section for :func:`compare_runs`, or empty string.

    Matches repeat groups by :attr:`StoredResult.group_key` across the
    two runs and tests each shared metric A-run-vs-B-run.  Returns ""
    unless *both* runs hold >= 2 repeats for at least one common group
    — so runs without repeats render byte-identically to the plain
    delta table.
    """
    from repro.experiments.stats import (
        cliffs_delta,
        holm_bonferroni,
        mann_whitney_u,
    )

    groups_a = group_samples(a.records)
    groups_b = group_samples(b.records)
    tests: List[Tuple[str, str, List[float], List[float]]] = []
    for key in sorted(set(groups_a) & set(groups_b)):
        ga, gb = groups_a[key], groups_b[key]
        if ga.n < 2 or gb.n < 2:
            continue
        for metric in sorted(set(ga.metrics) & set(gb.metrics)):
            xs, ys = ga.metrics[metric], gb.metrics[metric]
            if len(set(xs)) == 1 and set(xs) == set(ys):
                continue  # constant everywhere: untestable
            tests.append((ga.label, metric, xs, ys))
    if not tests:
        return ""
    rows: List[List[object]] = []
    raw = [mann_whitney_u(xs, ys).p_value for _, _, xs, ys in tests]
    adjusted = holm_bonferroni(raw)
    for (label, metric, xs, ys), p, p_adj in zip(tests, raw, adjusted):
        delta = cliffs_delta(xs, ys)
        a12_value = (delta + 1.0) / 2.0
        if p_adj <= alpha:
            verdict = f"{a.name} > {b.name}" if a12_value > 0.5 else (
                f"{b.name} > {a.name}"
            )
        else:
            verdict = "ns"
        rows.append([
            label, metric, f"{len(xs)}/{len(ys)}",
            f"{statistics.median(xs):.4g}", f"{statistics.median(ys):.4g}",
            f"{a12_value:.2f}", f"{p:.2g}", f"{p_adj:.2g}", verdict,
        ])
    return render_markdown_table(
        ["group", "metric", "n", f"median {a.name}", f"median {b.name}",
         "A12", "p", "p(Holm)", "verdict"],
        rows,
        title=f"Significance: {a.name} vs. {b.name} "
              f"(alpha={alpha:g}, Holm-corrected)",
    )


def compare_runs(
    run_a: Union[RunReport, ResultStore, str, Path],
    run_b: Union[RunReport, ResultStore, str, Path],
) -> str:
    """Markdown delta table between two stored runs.

    For every experiment present in both runs: per-series mean values
    side by side with relative delta, plus the wall-time speedup of run
    B over run A.  When both runs carry repeat groups (>= 2 records per
    spec-modulo-seed scenario), a Holm-corrected Mann-Whitney
    significance table follows the deltas; without repeats the output
    is exactly the plain delta table.
    """
    a = run_a if isinstance(run_a, RunReport) else RunReport(run_a)
    b = run_b if isinstance(run_b, RunReport) else RunReport(run_b)
    rows: List[List[object]] = []
    common = [e for e in a.experiments if e in set(b.experiments)]
    for experiment in common:
        means_a = _experiment_means(a, experiment)
        means_b = _experiment_means(b, experiment)
        for metric in sorted(set(means_a) & set(means_b)):
            va, vb = means_a[metric], means_b[metric]
            delta = f"{(vb - va) / va * 100:+.2f}%" if va else "-"
            rows.append(
                [experiment, metric, f"{va:.4g}", f"{vb:.4g}", delta]
            )
        # Wall times compare only successful specs: a crashed run's
        # near-zero error wall time must not read as a huge speedup.
        times_a = _ok_wall_times(a, experiment)
        times_b = _ok_wall_times(b, experiment)
        if times_a and times_b:
            ta = sum(times_a) / len(times_a)
            tb = sum(times_b) / len(times_b)
            speedup = f"{ta / tb:.2f}x" if tb else "-"
            rows.append([
                experiment, "wall_time_s", f"{ta:.3f}", f"{tb:.3f}", speedup,
            ])
    if not rows:
        rows.append(["-", "no comparable metrics in common", "-", "-", "-"])
    table = render_markdown_table(
        ["experiment", "metric", a.name, b.name, "delta"],
        rows,
        title=f"Compare: {a.name} vs. {b.name}",
    )
    significance = _cross_run_significance(a, b)
    if significance:
        table = f"{table}\n\n{significance}"
    return table


def _ok_wall_times(report: RunReport, experiment: str) -> List[float]:
    return [
        r.wall_time_s for r in report.ok_records if r.experiment == experiment
    ]


def _experiment_means(report: RunReport, experiment: str) -> Dict[str, float]:
    """Per-series means averaged across an experiment's ok specs."""
    sums: Dict[str, List[float]] = {}
    for record in report.ok_records:
        if record.experiment != experiment:
            continue
        for name, mean in numeric_series_means(record.series).items():
            sums.setdefault(name, []).append(mean)
    return {k: sum(v) / len(v) for k, v in sums.items()}
