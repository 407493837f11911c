"""Tests for sweep execution and its run directory.

Covers the advisory lockfiles (stale takeover, heartbeats), the
sharded/streaming result store (roll-over parity, index fast path,
100k-record streaming aggregation), the ``serial``/``pool`` backends,
the scheduler's writer lock, and the ``REPRO_JOBS``/uncapped ``--jobs``
contract.
"""

import json
import os
import time
from dataclasses import asdict

import pytest

from cli_helpers import run_cli

from repro.experiments import (
    ResultStore,
    RunReport,
    SpecError,
    StoredResult,
    SweepSpec,
    default_jobs,
    run_sweep,
)
from repro.experiments.exec import FileLock, LockHeldError
from repro.experiments.runner import _pool_context
from repro.experiments.store import RUN_LOCK_STALE_S, StoreCorruptionWarning
from repro.obs import telemetry_dir

needs_fork = pytest.mark.skipif(
    _pool_context().get_start_method() != "fork",
    reason="multi-process tests need the fork start method",
)

TINY_SWEEP = {
    "name": "tiny",
    "repeats": 1,
    "experiments": [
        {"experiment": "table1"},
        {"experiment": "table2"},
    ],
}


def tiny_sweep(**overrides):
    data = dict(TINY_SWEEP)
    data.update(overrides)
    return SweepSpec.from_dict(data)


def _record(spec_hash="abc", experiment="table1", status="ok", **kwargs):
    defaults = dict(
        spec_hash=spec_hash, experiment=experiment, params={}, repeat=0,
        seed=1, status=status, series={"s": {"k": 1.0}}, text="t",
    )
    defaults.update(kwargs)
    return StoredResult(**defaults)


def _age_file(path, seconds):
    old = time.time() - seconds
    os.utime(path, (old, old))


# ------------------------------ Locks ---------------------------------
def test_lock_acquire_release_round_trip(tmp_path):
    lock = FileLock(tmp_path / "a.lock", owner="me")
    with lock:
        assert lock.held
        assert lock.path.is_file()
        assert FileLock(tmp_path / "a.lock").holder() == "me"
    assert not lock.held
    assert not lock.path.is_file()


def test_lock_blocks_second_acquirer(tmp_path):
    with FileLock(tmp_path / "a.lock", owner="first"):
        with pytest.raises(LockHeldError, match="first"):
            FileLock(tmp_path / "a.lock", owner="second").acquire()


def test_stale_lock_is_taken_over(tmp_path):
    first = FileLock(tmp_path / "a.lock", owner="crashed", stale_after_s=0.05)
    first.acquire()
    _age_file(first.path, 10)
    second = FileLock(tmp_path / "a.lock", owner="takeover", stale_after_s=0.05)
    second.acquire()  # no LockHeldError: the dead holder is evicted
    assert second.holder() == "takeover"
    second.release()


def test_refresh_keeps_lock_live(tmp_path):
    holder = FileLock(tmp_path / "a.lock", owner="live", stale_after_s=0.2)
    holder.acquire()
    _age_file(holder.path, 10)
    holder.refresh()  # heartbeat resets the staleness clock
    with pytest.raises(LockHeldError):
        FileLock(tmp_path / "a.lock", stale_after_s=0.2).acquire()
    holder.release()


# ------------------------- Sharded store ------------------------------
def test_append_rolls_over_shards_with_parity(tmp_path):
    sharded = ResultStore(tmp_path / "sharded", shard_max_bytes=256)
    single = ResultStore(tmp_path / "single")  # default cap: one shard
    records = [_record(f"h{i}", status="ok" if i % 2 else "error")
               for i in range(12)]
    for record in records:
        sharded.append(record)
        single.append(record)
    assert len(sharded.shard_paths()) > 1
    assert len(single.shard_paths()) == 1
    # Roll-over must be invisible to every reader.
    assert sharded.load() == single.load()
    assert [r.spec_hash for r in sharded.load()] == [f"h{i}" for i in range(12)]
    assert sharded.ok_hashes() == single.ok_hashes()
    assert sharded.latest().keys() == single.latest().keys()


def test_every_shard_gets_a_spec_hash_index(tmp_path):
    store = ResultStore(tmp_path / "run", shard_max_bytes=256)
    for i in range(8):
        store.append(_record(f"h{i}"))
    for shard in store.shard_paths():
        index = ResultStore.index_path(shard)
        assert index.is_file()
        shard_lines = len(shard.read_text().splitlines())
        assert len(index.read_text().splitlines()) == shard_lines


def test_legacy_single_file_layout_still_reads(tmp_path):
    root = tmp_path / "run"
    root.mkdir()
    legacy = [_record("old1"), _record("old2", status="error")]
    with (root / "results.jsonl").open("w") as fh:
        for record in legacy:
            fh.write(json.dumps(record.__dict__) + "\n")
    store = ResultStore(root)
    assert store.exists()
    assert store.ok_hashes() == {"old1"}  # no index: streamed fallback
    store.append(_record("new1"))  # new appends roll into shards
    assert (root / "results-00000.jsonl").is_file()
    assert [r.spec_hash for r in store.load()] == ["old1", "old2", "new1"]
    assert store.ok_hashes() == {"old1", "new1"}


def test_ok_hashes_index_fast_path_and_fallback(tmp_path):
    store = ResultStore(tmp_path / "run")
    store.append(_record("h1"))
    store.append(_record("h2", status="error"))
    store.append(_record("h2"))  # newest wins
    assert store.ok_hashes() == {"h1", "h2"}
    # Losing the index falls back to streaming the shard itself.
    for shard in store.shard_paths():
        ResultStore.index_path(shard).unlink()
    assert store.ok_hashes() == {"h1", "h2"}


def test_index_trailing_its_shard_is_conservative(tmp_path):
    # Crash window: record written, index line not yet.  The spec must
    # look uncached (spurious re-run) — never the other way around.
    store = ResultStore(tmp_path / "run")
    store.append(_record("h1"))
    store.append(_record("h2"))
    (shard,) = store.shard_paths()
    index = ResultStore.index_path(shard)
    index.write_text(index.read_text().splitlines()[0] + "\n")
    assert store.ok_hashes() == {"h1"}
    assert set(store.latest()) == {"h1", "h2"}  # the record itself is safe


def test_load_surfaces_corrupt_lines(tmp_path):
    store = ResultStore(tmp_path / "run")
    store.append(_record("h1"))
    store.append(_record("h2"))
    (shard,) = store.shard_paths()
    with shard.open("a") as fh:
        fh.write('{"truncated": \n')
        fh.write("garbage\n")
    with pytest.warns(StoreCorruptionWarning, match="2 corrupt"):
        loaded = store.load()
    assert len(loaded) == 2
    assert loaded.skipped == 2
    # The streaming path skips silently (callers opt into the warning).
    assert len(list(store.iter_records())) == 2


def test_100k_record_store_aggregates_by_streaming(tmp_path, monkeypatch):
    # Acceptance: a synthetic 100k-record store must serve latest() and
    # the report context shard by shard, never materialising a full
    # List[StoredResult].
    root = tmp_path / "big"
    root.mkdir()
    hashes = [f"h{i:04d}" for i in range(1000)]
    template = json.dumps(_record("@HASH@", experiment="synth").__dict__)
    unique_lines = [template.replace("@HASH@", h) for h in hashes]
    per_shard_repeats = 10  # 10 shards x (1000 x 10) lines = 100k records
    for shard_no in range(10):
        shard = root / f"results-{shard_no:05d}.jsonl"
        shard.write_text("\n".join(unique_lines * per_shard_repeats) + "\n")
        ResultStore.index_path(shard).write_text(
            "\n".join(f"{h} ok" for h in hashes * per_shard_repeats) + "\n"
        )
    store = ResultStore(root)

    opened = []
    real_open = ResultStore._open_shard
    monkeypatch.setattr(
        ResultStore,
        "_open_shard",
        lambda self, path: (opened.append(path.name), real_open(self, path))[1],
    )
    monkeypatch.setattr(
        ResultStore,
        "load",
        lambda self: pytest.fail("aggregation must stream, not load()"),
    )

    stream = store.iter_records()
    assert next(stream).spec_hash == "h0000"
    assert opened == ["results-00000.jsonl"]  # lazy: one shard at a time

    assert len(store.ok_hashes()) == 1000  # via indexes: no shard opened
    assert opened == ["results-00000.jsonl"]

    newest = store.latest()
    assert len(newest) == 1000  # memory scales with specs, not records
    assert len(opened) == 11  # ...but every shard was visited once

    markdown = RunReport(store).markdown()
    assert "synth" in markdown and "1000" in markdown


# --------------------------- Backends ---------------------------------
def test_unknown_backend_lists_both_options(tmp_path):
    for backend in ("queue", "cloud"):
        with pytest.raises(SpecError, match="options: pool, serial"):
            run_sweep(tiny_sweep(), tmp_path / "run", backend=backend)
    assert not (tmp_path / "run").exists()


def test_serial_backend_runs_sweep(tmp_path):
    outcome = run_sweep(tiny_sweep(), tmp_path / "run", backend="serial")
    assert outcome.ok and outcome.total == 2
    assert outcome.backend == "serial"


# ------------------------- Scheduler locking ---------------------------
def test_writer_lock_excludes_second_scheduler(tmp_path):
    run_dir = tmp_path / "run"
    store = ResultStore(run_dir)
    with store.writer_lock(owner="other-sweep"):
        with pytest.raises(LockHeldError, match="other-sweep"):
            run_sweep(tiny_sweep(), run_dir, jobs=1)
    # Lock released: the sweep proceeds normally now.
    assert run_sweep(tiny_sweep(), run_dir, jobs=1).ok


def test_stale_writer_lock_is_taken_over(tmp_path, monkeypatch):
    monkeypatch.setattr("repro.experiments.store.RUN_LOCK_STALE_S", 0.05)
    run_dir = tmp_path / "run"
    store = ResultStore(run_dir)
    crashed = store.writer_lock(owner="crashed-sweep")
    crashed.acquire()
    _age_file(crashed.path, 100)
    assert run_sweep(tiny_sweep(), run_dir, jobs=1).ok
    assert RUN_LOCK_STALE_S == 3600.0  # the real default stays generous


def test_fully_cached_sweep_never_takes_the_lock(tmp_path):
    run_dir = tmp_path / "run"
    assert run_sweep(tiny_sweep(), run_dir, jobs=1).ok
    with ResultStore(run_dir).writer_lock(owner="other"):
        outcome = run_sweep(tiny_sweep(), run_dir, jobs=1)
    assert outcome.cached == 2 and not outcome.executed


def _run_files(run_dir):
    """``sweep.json`` and every telemetry file, as bytes by name."""
    paths = [run_dir / "sweep.json", *sorted(telemetry_dir(run_dir).iterdir())]
    return {path.name: path.read_bytes() for path in paths}


def test_sweep_refused_by_the_lock_writes_nothing(tmp_path):
    run_dir = tmp_path / "run"
    assert run_sweep(tiny_sweep(), run_dir, jobs=1).ok
    live = _run_files(run_dir)
    regridded = tiny_sweep(experiments=["table1", "fig4"])
    with ResultStore(run_dir).writer_lock(owner="live-sweep"):
        with pytest.raises(LockHeldError, match="live-sweep"):
            run_sweep(regridded, run_dir, jobs=1)
    assert _run_files(run_dir) == live


# ------------------------------ Jobs ----------------------------------
def test_default_jobs_honors_repro_jobs_env(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "32")
    assert default_jobs() == 32  # env override is uncapped
    monkeypatch.setenv("REPRO_JOBS", "0")
    assert default_jobs() == 1
    monkeypatch.setenv("REPRO_JOBS", "lots")
    with pytest.raises(ValueError, match="REPRO_JOBS"):
        default_jobs()
    monkeypatch.delenv("REPRO_JOBS")
    assert 1 <= default_jobs() <= 8  # soft cap applies only to the default


@pytest.mark.parametrize("jobs", [0, -3])
def test_run_sweep_rejects_jobs_below_one(tmp_path, jobs):
    with pytest.raises(SpecError, match=f"jobs must be >= 1, got {jobs}"):
        run_sweep(tiny_sweep(), tmp_path / "run", jobs=jobs)
    assert not (tmp_path / "run").exists()


# ------------------------------- CLI ----------------------------------
@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_cli_sweep_rejects_jobs_below_one(tmp_path, jobs):
    spec = tmp_path / "tiny.json"
    spec.write_text(json.dumps(TINY_SWEEP))
    code, out = run_cli(
        "sweep", str(spec), "--out", str(tmp_path / "run"), "--jobs", jobs
    )
    assert code == 2
    assert f"jobs must be >= 1, got {jobs}" in out
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("argv", [
    ("worker", "runs/x"),
    ("status", "runs/x"),
    ("sweep", "--preset", "quick", "--backend", "queue"),
    ("sweep", "--preset", "quick", "--max-retries", "2"),
])
def test_cli_rejects_the_work_queue_commands(argv):
    with pytest.raises(SystemExit) as exit_info:
        run_cli(*argv)
    assert exit_info.value.code == 2


# ----------------------- batched store appends ------------------------
def test_append_many_matches_per_record_layout(tmp_path):
    records = [_record(spec_hash=f"h{i:03d}") for i in range(20)]
    loop_store = ResultStore(tmp_path / "loop")
    for record in records:
        loop_store.append(record)
    batch_store = ResultStore(tmp_path / "batch")
    batch_store.append_many(records)
    loop_shards = {p.name: p.read_text() for p in loop_store.shard_paths()}
    batch_shards = {p.name: p.read_text() for p in batch_store.shard_paths()}
    assert batch_shards == loop_shards
    for shard in batch_store.shard_paths():
        assert (
            batch_store.index_path(shard).read_text()
            == loop_store.index_path(shard).read_text()
        )


def test_append_many_rolls_over_at_the_size_cap(tmp_path):
    store = ResultStore(tmp_path, shard_max_bytes=400)
    store.append_many([_record(spec_hash=f"h{i:03d}") for i in range(12)])
    shards = store.shard_paths()
    assert len(shards) > 1
    assert [r.spec_hash for r in store.load()] == [f"h{i:03d}" for i in range(12)]
    assert store.ok_hashes() == {f"h{i:03d}" for i in range(12)}


def test_appends_after_the_first_list_no_directory(tmp_path, monkeypatch):
    """The store tracks its tail shard after the first append, and each
    line is the record's ``asdict`` JSON byte for byte."""
    store = ResultStore(tmp_path, shard_max_bytes=400)
    records = [
        _record(spec_hash=f"h{i:03d}", series={"lat": [1.5, i], "name": "\u00b5s"})
        for i in range(12)
    ]
    store.append(records[0])

    def listing(_self):
        raise AssertionError("an append listed the run directory")

    with monkeypatch.context() as patched:
        patched.setattr(ResultStore, "shard_paths", listing)
        store.append_many(records[1:])
    shards = store.shard_paths()
    assert len(shards) > 1
    lines = [line for shard in shards for line in shard.read_text().splitlines()]
    assert lines == [json.dumps(asdict(record)) for record in records]


def test_a_resumed_store_appends_where_the_last_one_stopped(tmp_path):
    records = [_record(spec_hash=f"h{i:03d}") for i in range(12)]
    ResultStore(tmp_path / "once", shard_max_bytes=400).append_many(records)
    ResultStore(tmp_path / "twice", shard_max_bytes=400).append_many(records[:5])
    ResultStore(tmp_path / "twice", shard_max_bytes=400).append_many(records[5:])
    layouts = [
        {p.name: p.read_text() for p in ResultStore(tmp_path / run).shard_paths()}
        for run in ("once", "twice")
    ]
    assert len(layouts[0]) > 1
    assert layouts[1] == layouts[0]


def test_append_many_empty_batch_is_a_noop(tmp_path):
    store = ResultStore(tmp_path)
    assert store.append_many([]) == []
    assert not store.exists()


# ---------------------- Repeat determinism -----------------------------
REPEAT_SWEEP = {
    "name": "repeat-det",
    "repeats": 3,
    "experiments": [
        {
            "experiment": "workload-mix",
            "params": {
                "workload": "mixed(16)",
                "topology": "fanout-2",
                "streams": 2,
            },
        },
    ],
}


def _repeat_records(run_dir):
    """(repeat, seed) -> (status, canonical series) for every record."""
    return {
        (r.repeat, r.seed): (r.status, json.dumps(r.series, sort_keys=True))
        for r in ResultStore(run_dir).latest().values()
    }


@needs_fork
def test_repeats_identical_across_backends(tmp_path):
    # --repeats 3 must yield the same per-repeat records whichever
    # backend ran them: the seed lives in the spec, not the worker.
    results = {}
    for backend in ("serial", "pool"):
        outcome = run_sweep(
            SweepSpec.from_dict(REPEAT_SWEEP),
            tmp_path / backend,
            jobs=2,
            backend=backend,
        )
        assert outcome.ok and outcome.total == 3
        results[backend] = _repeat_records(tmp_path / backend)
    assert results["serial"] == results["pool"]
    # Three distinct injected seeds, three distinct sample series.
    records = results["serial"]
    assert len(records) == 3
    assert len({seed for _, seed in records}) == 3
    assert len({series for _, series in records.values()}) == 3


def test_repeat_rerun_hits_cache(tmp_path):
    # Re-running the same repeat sweep re-executes nothing: repeats
    # are content-addressed like any other spec.
    first = run_sweep(
        SweepSpec.from_dict(REPEAT_SWEEP), tmp_path / "run", backend="serial"
    )
    assert first.ok and len(first.executed) == 3
    second = run_sweep(
        SweepSpec.from_dict(REPEAT_SWEEP), tmp_path / "run", backend="serial"
    )
    assert second.ok and second.cached == 3 and not second.executed


def test_run_sweep_repeats_override(tmp_path):
    sweep = SweepSpec.from_dict(dict(REPEAT_SWEEP, repeats=1))
    outcome = run_sweep(
        sweep, tmp_path / "run", backend="serial", repeats=2
    )
    assert outcome.ok and outcome.total == 2
    with pytest.raises(SpecError, match="repeats"):
        run_sweep(
            SweepSpec.from_dict(REPEAT_SWEEP),
            tmp_path / "bad",
            backend="serial",
            repeats=0,
        )
