"""Tests for the application studies: graph offload and KV store."""

import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

from repro.apps.graph import (
    GraphWorkload,
    bfs_offload_study,
    bfs_trace,
    pagerank_offload_study,
    pagerank_trace,
)
from repro.apps.kvstore import KvStore, kv_offload_study
from repro.apps.offload import Access, AccessTraceEngine
from repro.config import asic_system


# ------------------------------- Graph --------------------------------
def test_csr_matches_graph():
    workload = GraphWorkload.generate(vertices=64, degree=3, seed=1)
    for v in range(workload.vertices):
        _rng, neighbours = workload.neighbours(v)
        assert set(neighbours) == set(workload.graph.neighbors(v))


def test_bfs_matches_networkx():
    workload = GraphWorkload.generate(vertices=96, degree=3, seed=2)
    _trace, distance = bfs_trace(workload)
    expected = dict(nx.single_source_shortest_path_length(workload.graph, 0))
    assert distance == expected


def test_bfs_trace_touches_every_discovered_vertex():
    workload = GraphWorkload.generate(vertices=48, degree=2, seed=3)
    trace, distance = bfs_trace(workload)
    writes = {a.addr for a in trace if a.write}
    discovered = {workload.vertex_addr(v) for v in distance if v != 0}
    assert writes == discovered


def test_pagerank_mass_conserved():
    workload = GraphWorkload.generate(vertices=60, degree=3, seed=4)
    _trace, ranks = pagerank_trace(workload, iterations=3)
    assert sum(ranks.values()) == pytest.approx(1.0)
    assert all(r > 0 for r in ranks.values())


def test_bfs_offload_study_shows_cxl_win():
    result = bfs_offload_study(asic_system(), vertices=96, degree=3)
    assert result.speedup > 5
    assert 0 < result.hmc_hit_rate < 1


def test_pagerank_offload_study_shows_cxl_win():
    result = pagerank_offload_study(asic_system(), vertices=48, degree=3)
    assert result.speedup > 5


# ------------------------------ KV store ------------------------------
def test_kv_put_get_roundtrip():
    store = KvStore(slots=64)
    store.put("a", b"alpha")
    store.put("b", b"beta")
    assert store.get("a") == b"alpha"
    assert store.get("b") == b"beta"
    assert store.get("missing") is None
    assert len(store) == 2


def test_kv_overwrite():
    store = KvStore(slots=64)
    store.put("k", b"v1")
    store.put("k", b"v2")
    assert store.get("k") == b"v2"
    assert len(store) == 1


def test_kv_collision_probing():
    store = KvStore(slots=8)
    # All five keys hash to slot 6 of 8, so the i-th one probes i slots.
    keys = ["key0", "key15", "key22", "key29", "key36"]
    for i, key in enumerate(keys):
        store.put(key, bytes([i]))
    for i, key in enumerate(keys):
        assert store.get(key) == bytes([i])
    operations = 2 * len(keys)
    assert store.probes == 2 * sum(range(1, len(keys) + 1)) > operations


def test_kv_slots_power_of_two():
    with pytest.raises(ValueError):
        KvStore(slots=100)


def test_kv_offload_study():
    result = kv_offload_study(asic_system(), operations=200, keys=64)
    assert result.speedup > 3
    assert result.hmc_hit_rate > 0.3  # hot keys stay cached


def test_kv_offload_study_does_not_depend_on_the_hash_seed():
    script = (
        "from repro.apps.kvstore import kv_offload_study; "
        "from repro.config import asic_system; "
        "print(repr(kv_offload_study(asic_system(), operations=200, keys=64)))"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


# --------------------------- Trace engine -----------------------------
def test_engine_repeated_addresses_hit_hmc():
    engine = AccessTraceEngine(asic_system())
    trace = [Access(0x1000) for _ in range(32)]
    _us, hit_rate = engine.run_cxl(trace)
    assert hit_rate == pytest.approx(31 / 32)


def test_engine_pcie_cost_scales_with_trace():
    engine = AccessTraceEngine(asic_system())
    short = engine.run_pcie([Access(0x1000)] * 4)
    long = engine.run_pcie([Access(0x1000)] * 8)
    assert long == pytest.approx(2 * short, rel=0.05)


def test_engine_rejects_negative_compute_time():
    # A negative think time would rewind simulated time once scheduled.
    with pytest.raises(ValueError, match="compute_ps_per_access"):
        AccessTraceEngine(asic_system(), compute_ps_per_access=-1)
