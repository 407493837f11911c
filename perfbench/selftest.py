"""The benchmark's own tests: metric catalogue, determinism, traces, seeds.

    python3 perfbench/selftest.py        # from the repository root, ~2 min

Every check drives ``run.py`` as the benchmark driver does, in a child
process, with short runs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

WORKLOADS = ("paper", "fanout-rw", "supernode-rw", "sweep")

#: Per-layer metrics that must repeat exactly: accuracy, failures, and the
#: work counters read from built systems.
DETERMINISTIC = (
    "fail_frac", "calib_error_pct", "holdout_error_pct", "sim.events",
    "cache.llc.requests", "cache.llc.snoops_sent", "cache.llc.writebacks",
    "cache.llc.trace_len", "cache.protocol_errors", "cxl.dcoh.reads",
    "cxl.dcoh.writes", "cxl.dcoh.evictions_issued",
    "core.supernode.remote_accesses", "system.builds", "obs.telemetry_events",
)


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300,
    )


def result(done: subprocess.CompletedProcess):
    """The final JSON line and the ``name = value`` lines before it."""
    if done.returncode != 0:
        raise AssertionError(done.stderr)
    lines = done.stdout.strip().splitlines()
    report = dict(line.split(" = ", 1) for line in lines[:-1] if " = " in line)
    return json.loads(lines[-1]), report, lines


class TracedRuns(unittest.TestCase):
    """Two traced invocations of every workload with the default seed."""

    runs = {}

    @classmethod
    def setUpClass(cls):
        for workload in WORKLOADS:
            cls.runs[workload] = [
                result(bench("--workload", workload, "--seconds", "1", "--trace", "1"))
                for _ in range(2)
            ]

    def test_every_per_layer_metric_reported(self):
        for workload, ((first, _, _), _) in self.runs.items():
            with self.subTest(workload=workload):
                self.assertTrue(first["correct"])
                self.assertEqual(
                    {name: m["unit"] for name, m in first["metrics"].items()},
                    run.PER_LAYER,
                )

    def test_deterministic_metrics_repeat_exactly(self):
        for workload, ((a, ra, _), (b, rb, _)) in self.runs.items():
            with self.subTest(workload=workload):
                for name in DETERMINISTIC:
                    self.assertEqual(a["metrics"][name]["value"],
                                     b["metrics"][name]["value"], name)
                self.assertEqual(ra["output_digest"], rb["output_digest"])

    def test_event_engine_use_per_workload(self):
        events = {w: r[0][0]["metrics"]["sim.events"]["value"]
                  for w, r in self.runs.items()}
        self.assertGreater(events["fanout-rw"], 0)
        self.assertGreater(events["paper"], 0)
        self.assertEqual(events["supernode-rw"], 0)

    def test_accuracy_and_failures_on_default_seed(self):
        metrics = {w: r[0][0]["metrics"] for w, r in self.runs.items()}
        self.assertGreater(metrics["fanout-rw"]["fail_frac"]["value"], 0)
        self.assertGreater(metrics["fanout-rw"]["cache.protocol_errors"]["value"], 0)
        for workload in ("paper", "supernode-rw", "sweep"):
            self.assertEqual(metrics[workload]["fail_frac"]["value"], 0, workload)
        self.assertAlmostEqual(metrics["paper"]["calib_error_pct"]["value"], 0.246, 2)
        self.assertAlmostEqual(metrics["paper"]["holdout_error_pct"]["value"], 1.788, 2)
        failures = [line for line in self.runs["fanout-rw"][0][2]
                    if line.startswith("failed ")]
        self.assertTrue(failures)
        self.assertTrue(all("ProtocolError: DirtyEvict from" in f for f in failures))


class Catalogue(unittest.TestCase):
    def test_list_metrics_prints_every_metric_with_unit(self):
        done = bench("--list-metrics")
        self.assertEqual(done.returncode, 0)
        listed = {}
        for line in done.stdout.splitlines():
            _kind, name, unit = line.split()
            listed[name] = unit
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
        self.assertEqual(listed, declared)
        self.assertEqual(listed, {**run.END_TO_END, **run.PER_LAYER})
        run.use_checkout_source()
        from repro.harness.experiments import PAPER_EXPERIMENT_IDS

        self.assertEqual(run.PAPER_IDS, PAPER_EXPERIMENT_IDS)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))


class Seeds(unittest.TestCase):
    def test_output_checks_hold_on_default_and_holdout_seed(self):
        for workload in ("fanout-rw", "sweep"):
            for seed in (run.DEFAULT_SEED, run.HOLDOUT_SEED):
                with self.subTest(workload=workload, seed=seed):
                    out, _, _ = result(bench("--workload", workload, "--seed",
                                             str(seed), "--seconds", "1"))
                    self.assertTrue(out["correct"])
                    self.assertEqual(set(out["metrics"]), set(run.END_TO_END))
                    self.assertTrue(all(m["value"] > 0 for m in out["metrics"].values()))

    def test_bare_directory_fails_without_result(self):
        run.WORK_ROOT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.WORK_ROOT) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = bench("--workload", "paper", "--seconds", "1", cwd=Path(tmp))
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
