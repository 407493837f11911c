"""Tests for the distributed execution subsystem.

Covers the advisory lockfiles (stale takeover, heartbeats), the
sharded/streaming result store (roll-over parity, index fast path,
100k-record streaming aggregation), the durable work queue (leases,
crash requeue, retry-with-backoff), the worker loop behind
``repro worker`` (including two concurrent workers on one queue), the
``serial``/``pool``/``queue`` backend registry, the scheduler's writer
lock, and the ``REPRO_JOBS``/uncapped ``--jobs`` contract.
"""

import json
import os
import time

import pytest

from cli_helpers import run_cli

from repro.experiments import (
    ResultStore,
    RunReport,
    SpecError,
    StoredResult,
    SweepSpec,
    default_jobs,
    executor_by_name,
    run_sweep,
    run_worker,
)
from repro.experiments.exec import (
    FileLock,
    LockHeldError,
    QueueBackend,
    QueueConfig,
    QueueError,
    UnknownExecutorError,
    WorkQueue,
)
from repro.experiments.runner import _pool_context
from repro.experiments.store import RUN_LOCK_STALE_S, StoreCorruptionWarning
from repro.harness.experiments import EXPERIMENTS

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


def _payloads(sweep):
    return [
        {
            "spec_hash": s.spec_hash,
            "experiment": s.experiment,
            "params": dict(s.params),
            "repeat": s.repeat,
            "seed": s.seed,
        }
        for s in sweep.expand()
    ]


def _make_queue(run_dir, payloads, **config):
    queue = WorkQueue(run_dir)
    defaults = dict(sweep="tiny", git={}, backoff_s=0.0, lease_timeout_s=30.0)
    defaults.update(config)
    queue.create(payloads, QueueConfig(**defaults))
    return queue


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


# ---------------------------- Work queue ------------------------------
def test_queue_lease_lifecycle(tmp_path):
    payloads = _payloads(tiny_sweep())
    queue = _make_queue(tmp_path / "run", payloads)
    first = queue.claim("w1", lease_timeout_s=30.0)
    second = queue.claim("w2", lease_timeout_s=30.0)
    assert {first.spec_hash, second.spec_hash} == {
        p["spec_hash"] for p in payloads
    }
    assert queue.claim("w3", lease_timeout_s=30.0) is None  # all leased
    assert not queue.drained()
    queue.complete(first, {"stub": True})
    queue.complete(second, {"stub": True})
    assert queue.drained()
    assert {h for h, _ in queue.done_records()} == {
        p["spec_hash"] for p in payloads
    }


def test_queue_stale_lease_requeues_without_duplicate_record(tmp_path):
    # A worker crashes mid-spec: its lease stops heartbeating, the spec
    # requeues, and — because the crashed worker never completed — the
    # store ends up with exactly one record.
    run_dir = tmp_path / "run"
    payloads = _payloads(tiny_sweep(experiments=["table1"]))
    queue = _make_queue(run_dir, payloads, lease_timeout_s=0.05)
    crashed = queue.claim("crashed-worker", lease_timeout_s=0.05)
    assert crashed is not None
    _age_file(queue.leases_dir / f"{crashed.spec_hash}.json", 100)
    assert queue.requeue_stale(lease_timeout_s=0.05) == [crashed.spec_hash]
    outcome = run_worker(run_dir, worker_id="rescuer", poll_s=0.01)
    assert [r.spec_hash for r in outcome.executed] == [crashed.spec_hash]
    records = ResultStore(run_dir).load()
    assert len(records) == 1  # requeued, executed once, not duplicated
    assert records[0].ok


def test_queue_claim_evicts_stale_lease_directly(tmp_path):
    # Workers do not depend on the scheduler's requeue pass: claim()
    # itself evicts a lease whose heartbeat stopped.
    payloads = _payloads(tiny_sweep(experiments=["table1"]))
    queue = _make_queue(tmp_path / "run", payloads, lease_timeout_s=0.05)
    dead = queue.claim("dead", lease_timeout_s=0.05)
    _age_file(queue.leases_dir / f"{dead.spec_hash}.json", 100)
    stolen = queue.claim("alive", lease_timeout_s=0.05)
    assert stolen is not None and stolen.spec_hash == dead.spec_hash


def test_queue_retry_backoff_delays_reclaim(tmp_path):
    payloads = _payloads(tiny_sweep(experiments=["table1"]))
    queue = _make_queue(tmp_path / "run", payloads)
    task = queue.claim("w1", lease_timeout_s=30.0)
    delay = queue.retry(task, backoff_s=60.0)
    assert delay == 60.0
    assert not queue.drained()  # still pending, just backing off
    assert queue.claim("w1", lease_timeout_s=30.0) is None
    task_file = queue.tasks_dir / f"{task.spec_hash}.json"
    data = json.loads(task_file.read_text())
    assert data["attempts"] == 1
    assert data["not_before"] > time.time()
    data["not_before"] = 0.0
    task_file.write_text(json.dumps(data))
    again = queue.claim("w1", lease_timeout_s=30.0)
    assert again.attempts == 1  # retry history survives the requeue


def test_queue_claim_skips_a_spec_completed_under_its_read(tmp_path, monkeypatch):
    # Worker B reads the task file; worker A then completes the spec
    # (done marker written, task unlinked, lease released) before B
    # leases it.  B's O_EXCL lease create succeeds, but B must not get
    # the spec back, or it would run it twice.
    payloads = _payloads(tiny_sweep(experiments=["table1"]))
    queue = _make_queue(tmp_path / "run", payloads)
    task_a = queue.claim("A", lease_timeout_s=30.0)
    read_json = WorkQueue._read_json

    def read_then_complete(path):
        data = read_json(path)
        if path.parent == queue.tasks_dir:
            queue.complete(task_a, {"stub": True})
        return data

    monkeypatch.setattr(WorkQueue, "_read_json", staticmethod(read_then_complete))
    assert queue.claim("B", lease_timeout_s=30.0) is None
    assert queue.drained()
    assert [h for h, _ in queue.done_records()] == [task_a.spec_hash]
    assert not any(queue.leases_dir.iterdir())  # B dropped its lease


# ------------------------------ Worker --------------------------------
def test_worker_drains_queue_and_streams_records(tmp_path):
    run_dir = tmp_path / "run"
    payloads = _payloads(tiny_sweep())
    queue = _make_queue(run_dir, payloads)
    lines = []
    outcome = run_worker(
        run_dir, worker_id="w1", poll_s=0.01, progress=lines.append
    )
    assert len(outcome.executed) == 2 and not outcome.failed
    assert queue.drained()
    store = ResultStore(run_dir)
    assert store.ok_hashes() == {p["spec_hash"] for p in payloads}
    assert all(r.sweep == "tiny" for r in store.load())
    assert sum("ok" in line for line in lines) == 2


def test_worker_without_queue_raises(tmp_path):
    with pytest.raises(QueueError, match="no work queue"):
        run_worker(tmp_path / "nowhere", wait_s=0.0)


def _boom():
    """Deliberately failing experiment used by retry tests."""
    raise RuntimeError("intentional failure")


def test_worker_retry_exhausts_to_persisted_error(tmp_path, monkeypatch):
    monkeypatch.setitem(EXPERIMENTS, "boom", _boom)
    run_dir = tmp_path / "run"
    payloads = _payloads(tiny_sweep(experiments=["boom"]))
    _make_queue(run_dir, payloads, max_attempts=3, backoff_s=0.0)
    outcome = run_worker(run_dir, worker_id="w1", poll_s=0.01)
    assert outcome.retried == 2  # attempts 1 and 2 requeued...
    assert len(outcome.executed) == 1  # ...attempt 3 persisted the error
    (record,) = ResultStore(run_dir).load()
    assert record.status == "error"
    assert "intentional failure" in record.error
    assert WorkQueue(run_dir).drained()


@needs_fork
def test_two_concurrent_workers_split_one_queue(tmp_path):
    run_dir = tmp_path / "run"
    payloads = _payloads(tiny_sweep(repeats=2))  # 4 distinct specs
    _make_queue(run_dir, payloads)
    mp = _pool_context()
    workers = [
        mp.Process(
            target=run_worker,
            args=(str(run_dir),),
            kwargs={"worker_id": f"w{i}", "poll_s": 0.01},
        )
        for i in range(2)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=60)
        assert worker.exitcode == 0
    records = ResultStore(run_dir).load()
    assert records.skipped == 0
    hashes = [r.spec_hash for r in records]
    assert len(hashes) == 4  # every spec exactly once, no duplicates
    assert set(hashes) == {p["spec_hash"] for p in payloads}
    assert WorkQueue(run_dir).drained()


# --------------------------- Backends ---------------------------------
def test_executor_registry_lists_options_on_typo():
    assert executor_by_name("serial").name == "serial"
    assert executor_by_name("pool").name == "pool"
    assert executor_by_name("queue").name == "queue"
    with pytest.raises(UnknownExecutorError, match="pool.*queue.*serial"):
        executor_by_name("cloud")


def test_serial_backend_runs_sweep(tmp_path):
    outcome = run_sweep(tiny_sweep(), tmp_path / "run", backend="serial")
    assert outcome.ok and outcome.total == 2
    assert outcome.backend == "serial"


@needs_fork
def test_queue_backend_matches_pool_backend_per_spec(tmp_path):
    # Acceptance: identical spec hashes, status, and series across
    # backends (timing/metadata fields excluded).
    sweep = tiny_sweep()
    assert run_sweep(sweep, tmp_path / "pool", jobs=2, backend="pool").ok
    assert run_sweep(
        sweep,
        tmp_path / "queue",
        jobs=2,
        backend=QueueBackend(poll_s=0.01),
    ).ok

    def comparable(run_dir):
        return {
            h: (r.status, json.dumps(r.series, sort_keys=True))
            for h, r in ResultStore(run_dir).latest().items()
        }

    assert comparable(tmp_path / "queue") == comparable(tmp_path / "pool")
    # A drained queue leaves no machinery behind in the run directory.
    assert not WorkQueue(tmp_path / "queue").exists()


@needs_fork
def test_interrupted_queue_run_resumes_from_cache(tmp_path):
    run_dir = tmp_path / "run"
    # First invocation completed only table1 before the "interrupt"
    # (simulated by a sweep that simply had less work), leaving stale
    # queue state behind.
    partial = tiny_sweep(experiments=["table1"])
    assert run_sweep(
        partial, run_dir, jobs=1, backend=QueueBackend(poll_s=0.01)
    ).ok
    WorkQueue(run_dir).create(  # leftover queue debris from the interrupt
        [{"spec_hash": "stale", "experiment": "x",
          "params": {}, "repeat": 0, "seed": 0}],
        QueueConfig(sweep="tiny"),
    )
    outcome = run_sweep(
        tiny_sweep(), run_dir, jobs=1, backend=QueueBackend(poll_s=0.01)
    )
    assert outcome.cached == 1  # table1 resumed from the store, not re-run
    assert [r.experiment for r in outcome.executed] == ["table2"]
    assert len(ResultStore(run_dir).load()) == 2


@needs_fork
def test_queue_backend_isolates_failures(tmp_path, monkeypatch):
    monkeypatch.setitem(EXPERIMENTS, "boom", _boom)
    sweep = SweepSpec.from_dict({
        "name": "mixed",
        "experiments": [{"experiment": "boom"}, {"experiment": "table1"}],
    })
    outcome = run_sweep(
        sweep,
        tmp_path / "run",
        jobs=2,
        backend=QueueBackend(max_attempts=2, backoff_s=0.0, poll_s=0.01),
    )
    assert outcome.total == 2
    assert len(outcome.failed) == 1
    assert "intentional failure" in outcome.failed[0].error
    assert [r.experiment for r in outcome.executed if r.ok] == ["table1"]


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


# ------------------------------- CLI ----------------------------------
@needs_fork
def test_cli_sweep_queue_backend(tmp_path):
    spec = tmp_path / "tiny.json"
    spec.write_text(json.dumps(TINY_SWEEP))
    run_dir = tmp_path / "run"
    code, out = run_cli(
        "sweep", str(spec), "--out", str(run_dir),
        "--jobs", "2", "--backend", "queue",
    )
    assert code == 0
    assert "[queue]" in out and "2 specs" in out and "0 failed" in out
    code, out = run_cli(
        "sweep", str(spec), "--out", str(run_dir),
        "--jobs", "2", "--backend", "queue",
    )
    assert code == 0 and "2 cached" in out


def test_cli_worker_drains_a_prepared_queue(tmp_path):
    run_dir = tmp_path / "run"
    _make_queue(run_dir, _payloads(tiny_sweep()))
    code, out = run_cli("worker", str(run_dir), "--worker-id", "cli-w")
    assert code == 0
    assert "worker cli-w: 2 specs (0 failed, 0 retried)" in out


def test_cli_worker_without_queue_exits_2(tmp_path):
    code, out = run_cli("worker", str(tmp_path / "empty"), "--wait-s", "0")
    assert code == 2
    assert "no work queue" in out and "--backend queue" in out


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


def test_append_many_empty_batch_is_a_noop(tmp_path):
    store = ResultStore(tmp_path)
    assert store.append_many([]) == []
    assert not store.exists()


# ----------------------- per-worker reporting -------------------------
def test_worker_records_carry_the_worker_id(tmp_path):
    run_dir = tmp_path / "run"
    _make_queue(run_dir, _payloads(tiny_sweep()))
    run_worker(run_dir, worker_id="w-batch", poll_s=0.01)
    records = ResultStore(run_dir).load()
    assert records and all(r.worker == "w-batch" for r in records)


def test_report_surfaces_worker_throughput(tmp_path):
    from repro.experiments import RunReport

    store = ResultStore(tmp_path)
    store.append_many([
        _record(spec_hash="a1", worker="w1", wall_time_s=2.0),
        _record(spec_hash="a2", worker="w1", wall_time_s=2.0),
        _record(spec_hash="b1", worker="w2", wall_time_s=1.0),
    ])
    report = RunReport(store)
    stats = report.worker_stats
    assert set(stats) == {"w1", "w2"}
    assert stats["w1"]["specs"] == 2 and stats["w1"]["wall_s"] == 4.0
    assert stats["w1"]["specs_per_sec"] == pytest.approx(0.5)
    assert stats["w2"]["records_per_sec"] == pytest.approx(1.0)
    table = report.worker_markdown()
    assert "w1" in table and "specs/sec" in table


def test_report_retried_specs_count_as_records_not_specs(tmp_path):
    from repro.experiments import RunReport

    store = ResultStore(tmp_path)
    # Two stored records for one spec (a re-run): newest wins as the
    # spec, both count toward the records rate.
    store.append(_record(spec_hash="a1", worker="w1", wall_time_s=1.0,
                         status="error"))
    store.append(_record(spec_hash="a1", worker="w1", wall_time_s=1.0))
    stats = RunReport(store).worker_stats
    assert stats["w1"]["specs"] == 1
    assert stats["w1"]["records"] == 2


def test_report_without_worker_ids_renders_no_worker_table(tmp_path):
    from repro.experiments import RunReport

    store = ResultStore(tmp_path)
    store.append(_record(spec_hash="a1"))
    report = RunReport(store)
    assert report.worker_stats == {}
    assert report.worker_markdown() == ""


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
    # executor ran them: the seed lives in the spec, not the worker.
    backends = {
        "serial": "serial",
        "pool": "pool",
        "queue": QueueBackend(poll_s=0.01),
    }
    results = {}
    for name, backend in backends.items():
        outcome = run_sweep(
            SweepSpec.from_dict(REPEAT_SWEEP),
            tmp_path / name,
            jobs=2,
            backend=backend,
        )
        assert outcome.ok and outcome.total == 3
        results[name] = _repeat_records(tmp_path / name)
    assert results["serial"] == results["pool"] == results["queue"]
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
