"""Tests for the application studies: graph offload and KV store."""

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
    for i in range(7):
        store.put(f"key{i}", bytes([i]))
    for i in range(7):
        assert store.get(f"key{i}") == bytes([i])
    assert store.probes > 7  # collisions forced extra probes


def test_kv_slots_power_of_two():
    with pytest.raises(ValueError):
        KvStore(slots=100)


def test_kv_offload_study():
    result = kv_offload_study(asic_system(), operations=200, keys=64)
    assert result.speedup > 3
    assert result.hmc_hit_rate > 0.3  # hot keys stay cached


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
