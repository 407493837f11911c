"""Regenerate ``expected.json``, the outputs every benchmark run is checked against.

    python3 perfbench/record.py

Run it only on purpose, when a change is meant to alter simulated outputs;
the diff of ``expected.json`` then shows which ones moved.  It records:

* ``paper`` — SHA-256 of every paper experiment's text and of the
  concatenated ``repro run all`` output;
* ``fanout-rw`` / ``supernode-rw`` — for each seed of the pool, the digest
  of ``WorkloadMeasurement.to_dict()``, or the error text of a seed that
  raises (the DirtyEvict race on ``fanout-rw``);
* ``sweep`` — the seed pool and each spec's ``series`` digest, keyed by
  spec hash.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import run
import suite

DRIVER_SEED_POOL = range(1, 41)
SWEEP_SEED_POOL = list(range(1, 401))


def record_paper():
    from repro.harness.experiments import PAPER_EXPERIMENT_IDS, run_experiment

    texts = {exp_id: run_experiment(exp_id).text for exp_id in PAPER_EXPERIMENT_IDS}
    run_all = "".join(texts[exp_id] + "\n\n" for exp_id in PAPER_EXPERIMENT_IDS)
    return {
        "run_all_sha256": hashlib.sha256(run_all.encode()).hexdigest(),
        "texts": {exp_id: suite.digest(text) for exp_id, text in texts.items()},
    }


def record_driver(workload):
    driver = suite.make_driver()
    seeds = {}
    for seed in DRIVER_SEED_POOL:
        try:
            measurement = workload.measure(driver, seed)
        except Exception as exc:  # recorded as the seed's expected outcome
            seeds[str(seed)] = {"error": suite.error_text(exc)}
        else:
            seeds[str(seed)] = {"digest": suite.digest(measurement.to_dict())}
        print(workload.name, seed, seeds[str(seed)], file=sys.stderr)
    return {
        "workload": workload.workload,
        "topology": workload.topology,
        "streams": workload.streams,
        "profile": suite.PROFILE,
        "seeds": seeds,
    }


def record_sweep():
    from repro.experiments.presets import PRESETS
    from repro.experiments.runner import run_sweep
    from repro.experiments.spec import SweepSpec

    sweep = suite.Sweep.sweep_dict(PRESETS["significance"], SWEEP_SEED_POOL)
    with tempfile.TemporaryDirectory(dir=run.WORK_ROOT) as tmp:
        outcome = run_sweep(SweepSpec.from_dict(sweep), Path(tmp) / "run",
                            force=True, backend="serial", telemetry=False)
    if not outcome.ok:
        raise SystemExit(f"sweep recording failed: {outcome.failed[0].error}")
    return {
        "seed_pool": SWEEP_SEED_POOL,
        "series": {r.spec_hash: suite.digest(r.series) for r in outcome.executed},
    }


def main() -> int:
    run.use_checkout_source()
    run.WORK_ROOT.mkdir(exist_ok=True)
    expected = {"paper": record_paper()}
    for workload in (suite.FanoutRw, suite.SupernodeRw):
        expected[workload.name] = record_driver(workload)
    expected["sweep"] = record_sweep()
    suite.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {suite.EXPECTED_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
