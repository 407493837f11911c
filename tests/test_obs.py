"""Tests for the observability subsystem (repro.obs)."""

import gc
import json
import sys
from functools import partial

import pytest

from cli_helpers import run_cli

from repro.config import system_by_name
from repro.experiments import ResultStore, SweepSpec, run_sweep
from repro.obs import (
    EVENT_KINDS,
    SimProfiler,
    TelemetrySchemaError,
    TelemetryWriter,
    build_timeline,
    profile,
    read_events,
    telemetry_dir,
    validate_event,
    write_timeline,
)
from repro.obs.profiler import _attribute
from repro.sim.engine import Simulator
from repro.workloads import WorkloadDriver

TINY = {
    "name": "tiny",
    "experiments": [{"experiment": "table1"}, {"experiment": "table2"}],
}


def tiny_sweep():
    return SweepSpec.from_dict(TINY)


# ---------------------------- telemetry -------------------------------
def test_validate_event_rejects_bad_events():
    ok = {
        "schema": 1, "ts": 1.0, "kind": "spec_cached",
        "source": "s", "spec_hash": "h",
    }
    assert validate_event(dict(ok)) == ok
    with pytest.raises(TelemetrySchemaError, match="must be an object"):
        validate_event([1])
    with pytest.raises(TelemetrySchemaError, match="missing field 'ts'"):
        validate_event({"schema": 1, "kind": "spec_cached", "source": "s"})
    with pytest.raises(TelemetrySchemaError, match="unsupported telemetry schema"):
        validate_event({**ok, "schema": 99})
    with pytest.raises(TelemetrySchemaError, match="'ts' must be a number"):
        validate_event({**ok, "ts": True})
    with pytest.raises(TelemetrySchemaError, match="unknown telemetry kind"):
        validate_event({**ok, "kind": "nope"})
    with pytest.raises(TelemetrySchemaError, match="missing field 'spec_hash'"):
        validate_event({k: v for k, v in ok.items() if k != "spec_hash"})


def test_every_kind_lists_required_fields():
    for kind, fields in EVENT_KINDS.items():
        assert isinstance(fields, tuple), kind


def test_writer_emits_and_reader_merges(tmp_path):
    a = TelemetryWriter(tmp_path, "a")
    b = TelemetryWriter(tmp_path, "b")
    a.emit("spec_cached", spec_hash="h1")
    b.emit("spec_cached", spec_hash="h2")
    a.emit("record", spec_hash="h3", status="ok", wall_s=0.5)
    assert a.emitted == 2
    events, skipped = read_events(tmp_path)
    assert skipped == 0
    assert len(events) == 3
    assert [e["ts"] for e in events] == sorted(e["ts"] for e in events)
    assert (telemetry_dir(tmp_path) / "a.jsonl").exists()


def test_writer_rejects_schema_violations(tmp_path):
    writer = TelemetryWriter(tmp_path, "s")
    with pytest.raises(TelemetrySchemaError):
        writer.emit("record", spec_hash="h")  # missing fields
    assert writer.emitted == 0


def test_read_events_skips_or_raises_on_malformed(tmp_path):
    writer = TelemetryWriter(tmp_path, "s")
    writer.emit("spec_cached", spec_hash="h")
    with open(writer.path, "a") as fh:
        fh.write("not json\n")
    events, skipped = read_events(tmp_path)
    assert len(events) == 1 and skipped == 1
    with pytest.raises(TelemetrySchemaError, match=r"s\.jsonl:2"):
        read_events(tmp_path, strict=True)


def test_read_events_empty_without_directory(tmp_path):
    assert read_events(tmp_path) == ([], 0)


# ----------------------------- timeline -------------------------------
def test_sweep_emits_scheduler_telemetry(tmp_path):
    run_dir = tmp_path / "run"
    outcome = run_sweep(tiny_sweep(), run_dir, jobs=1)
    assert outcome.ok
    events, skipped = read_events(run_dir, strict=True)
    assert skipped == 0
    by_kind = {}
    for event in events:
        assert event["source"] == "scheduler"
        by_kind.setdefault(event["kind"], []).append(event)
    assert sorted(by_kind) == ["record", "run_finished", "run_started"]
    assert len(by_kind["record"]) == 2
    (started,), (finished,) = by_kind["run_started"], by_kind["run_finished"]
    assert started["total"] == 2 and started["backend"] == "pool"
    assert finished["executed"] == 2 and finished["failed"] == 0


def test_sweep_telemetry_off_writes_nothing(tmp_path):
    run_dir = tmp_path / "run"
    run_sweep(tiny_sweep(), run_dir, jobs=1, telemetry=False)
    assert not telemetry_dir(run_dir).exists()
    assert read_events(run_dir) == ([], 0)
    assert len(ResultStore(run_dir).latest()) == 2  # store still answers


def test_timeline_builds_valid_trace_events(tmp_path):
    run_dir = tmp_path / "run"
    run_sweep(tiny_sweep(), run_dir, jobs=1)
    timeline = build_timeline(run_dir)
    events = timeline["traceEvents"]
    assert timeline["displayTimeUnit"] == "ms"
    phases = {e["ph"] for e in events}
    assert {"M", "i", "X"} <= phases
    # One slice per persisted record.
    slices = [e for e in events if e["ph"] == "X"]
    assert len(slices) == 2
    for entry in slices:
        assert entry["ts"] >= 0 or entry["dur"] > 0
        assert entry["cat"] == "spec"
        assert entry["args"]["status"] == "ok"
    json.dumps(timeline)  # Chrome trace JSON must serialise

    out = write_timeline(run_dir)
    assert out == run_dir / "timeline.json"
    loaded = json.loads(out.read_text())
    assert loaded["traceEvents"]


def test_timeline_empty_without_telemetry(tmp_path):
    timeline = build_timeline(tmp_path)
    assert timeline["traceEvents"] == []


# ----------------------------- profiler -------------------------------
def test_attribute_prefers_owner_name():
    class Dev:
        name = "lsu0"

        def cb(self):
            pass

    class Anon:
        def cb(self):
            pass

    assert _attribute(Dev().cb) == "lsu0"
    assert _attribute(Anon().cb) == "Anon"

    def closure_maker():
        def step():
            pass
        return step

    # Closure qualnames collapse at the first <locals> boundary.
    collapsed = _attribute(closure_maker())
    assert ".<locals>" not in collapsed
    assert collapsed.startswith("test_attribute_prefers_owner_name")


def test_attribute_charges_a_partial_to_what_it_wraps():
    class Dev:
        name = "lsu0"

        def cb(self, issued_ps, result):
            pass

    def step(issued_ps, result):
        pass

    assert _attribute(partial(Dev().cb, 125)) == "lsu0"
    assert _attribute(partial(step, 125)) == _attribute(step)


def test_profiler_counts_every_event_and_samples_some():
    prof = SimProfiler(sample_every=2)
    hits = []
    for _ in range(6):
        prof.record(hits.append, (1,))
    assert len(hits) == 6  # profiler invokes the callback itself
    assert prof.total_events == 6
    (component,) = prof.events
    assert prof.events[component] == 6
    assert prof.samples[component] == 3  # every 2nd call timed
    with pytest.raises(ValueError):
        SimProfiler(sample_every=0)


def test_profile_context_is_exclusive_and_cleans_up():
    from repro.sim import engine as _engine

    with profile(sample_every=4) as prof:
        assert _engine._PROFILER is prof
        with pytest.raises(RuntimeError, match="already active"):
            with profile():
                pass
    assert _engine._PROFILER is None


def test_profiled_run_matches_unprofiled():
    def drive():
        sim = Simulator()

        def chain(n):
            if n > 0:
                sim.schedule_after(100, chain, (n - 1,))

        chain(50)
        sim.run()
        return sim.executed, sim.now

    plain = drive()
    with profile(sample_every=3) as prof:
        profiled = drive()
    assert profiled == plain  # bit-identical with the profiler installed
    assert prof.total_events == plain[0]
    assert prof.runs == 1
    assert prof.run_wall_s > 0


def _drive():
    WorkloadDriver(system_by_name("asic")).run(
        "rw-mix(2000,0.5)", topology="fanout-2", seed=7, streams=2
    )


def _drain_work(monkeypatch):
    """``(events, calls)`` of one fanout-2 LSU drain.

    ``calls`` counts the Python and C function calls made inside
    ``Simulator.run``.
    """
    run = Simulator.run
    work = []

    def counted_run(sim, *args, **kwargs):
        calls = [0]

        def count(_frame, event, _arg):
            if event == "call" or event == "c_call":
                calls[0] += 1

        # A garbage collection inside the counted window would count the
        # finalizer calls of objects that other tests left behind.
        gc.collect()
        gc.disable()
        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            run(sim, *args, **kwargs)
        finally:
            sys.setprofile(previous)
            gc.enable()
        work.append((sim.executed, calls[0]))

    with monkeypatch.context() as patch:
        patch.setattr(Simulator, "run", counted_run)
        _drive()
    (drain,) = work
    return drain


def test_exited_profiler_adds_no_work_to_the_drain(monkeypatch):
    """Instrumentation off adds no work: after a profiled drive has
    exited, the same drain executes the same events and makes the same
    calls as one that was never profiled."""
    _drain_work(monkeypatch)  # warm first-call caches
    plain = _drain_work(monkeypatch)
    with profile() as prof:
        _drive()
    after = _drain_work(monkeypatch)
    assert plain[0] > 0 and plain[1] > plain[0]
    assert prof.total_events == plain[0]
    assert after == plain


def test_profiler_render_and_to_dict():
    prof = SimProfiler(sample_every=1)
    prof.record((lambda: None), ())
    prof.add_run(0.5, 1)
    payload = prof.to_dict()
    assert payload["total_events"] == 1
    assert payload["events_per_sec"] == pytest.approx(2.0)
    assert payload["components"][0]["events"] == 1
    text = prof.render()
    assert "profile: 1 events" in text
    assert "sampling 1/1" in text
    json.dumps(payload)


def test_sweep_profile_attaches_attribution(tmp_path):
    run_dir = tmp_path / "run"
    sweep = SweepSpec.from_dict(
        {"name": "prof", "experiments": [{"experiment": "fig13"}]}
    )
    outcome = run_sweep(sweep, run_dir, jobs=1, profile=True)
    (record,) = outcome.executed
    assert record.ok
    assert record.profile["total_events"] > 0
    assert record.profile["components"]
    # Profiling never changes what a spec computes, so the cached rerun
    # without profiling hits the same spec hash.
    rerun = run_sweep(sweep, run_dir, jobs=1)
    assert rerun.cached == 1

    from repro.experiments.report import RunReport

    report = RunReport(run_dir)
    text = report.profile_markdown()
    assert "Simulator profile" in text
    assert "1 profiled record(s)" in text


# ------------------------------- CLI ----------------------------------
def test_cli_timeline_writes_trace(tmp_path):
    run_dir = tmp_path / "run"
    assert run_sweep(tiny_sweep(), run_dir, jobs=1).ok
    code, out = run_cli("timeline", str(run_dir))
    assert code == 0
    assert "timeline.json" in out
    assert json.loads((run_dir / "timeline.json").read_text())["traceEvents"]


def test_cli_timeline_requires_telemetry(tmp_path):
    run_dir = tmp_path / "run"
    run_sweep(tiny_sweep(), run_dir, jobs=1, telemetry=False)
    code, out = run_cli("timeline", str(run_dir))
    assert code == 2
    assert "no telemetry" in out


def test_cli_run_profile_prints_attribution():
    code, out = run_cli("run", "fig13", "--profile")
    assert code == 0
    assert "profile:" in out
    assert "events/s" in out
    assert "component" in out
