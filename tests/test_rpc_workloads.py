"""Tests for HyperProtoBench profiles, layouts, and the RPC pipelines."""

import hashlib
import sys

import pytest

from repro.config import asic_system
from repro.rpc import harness as rpc_harness
from repro.rpc.cxl_rpc import CxlRpcPipeline
from repro.rpc.harness import run_rpc_comparison
from repro.rpc.hyperprotobench import BENCH_NAMES, make_bench
from repro.rpc.layout import (
    FIELDS_PER_DESCRIPTOR,
    Block,
    SlabAllocator,
    UnitKind,
    layout_message,
)
from repro.rpc.message import decode_message, encode_message
from repro.rpc.rpcnic import RpcNicPipeline, decode_time_ps, encode_time_ps


# --------------------------- Bench profiles ---------------------------
def test_all_benches_build():
    for name in BENCH_NAMES:
        bench = make_bench(name, messages=5)
        assert len(bench) == 5
        assert len(bench.encoded) == 5


def test_unknown_bench_rejected():
    with pytest.raises(ValueError):
        make_bench("Bench9")


def test_bench_wire_bytes_decode():
    bench = make_bench("Bench0", messages=3)
    for value, wire in zip(bench.values, bench.encoded):
        assert decode_message(bench.schema, wire) == value


def test_bench1_small_fields_profile():
    b1 = make_bench("Bench1", messages=10)
    assert b1.mean_wire_bytes < 250
    assert b1.mean_fields >= 25


def test_bench2_deeply_nested():
    b2 = make_bench("Bench2", messages=5)
    assert b2.stats[0].max_depth >= 10
    assert b2.mean_nested >= 10


def test_bench5_large_strings():
    b5 = make_bench("Bench5", messages=10)
    assert b5.mean_wire_bytes > 2_000
    assert b5.mean_fields < 15


def test_bench_deterministic():
    a = make_bench("Bench3", messages=4, seed=9)
    b = make_bench("Bench3", messages=4, seed=9)
    assert a.encoded == b.encoded


# Fig. 18's totals depend only on message sizes and field counts, so the
# run-all golden cannot see a wrong letter or byte stream.  These pin the
# generated wire bytes themselves at Fig. 18's sizes (200 messages, seed 11).
BENCH_BYTES_SHA256 = {
    "Bench0": "76e8306373e1a28b",
    "Bench1": "b0ceba27dbeaebab",
    "Bench2": "df4c9e66d9403437",
    "Bench3": "f3fc15785321267b",
    "Bench4": "914ac4fc60fef09b",
    "Bench5": "2a56d5a703e1f13e",
}


@pytest.mark.parametrize("name", BENCH_NAMES)
def test_bench_bytes_pinned(name):
    bench = make_bench(name, messages=200, seed=11)
    digest = hashlib.sha256(b"".join(bench.encoded)).hexdigest()
    assert digest[:16] == BENCH_BYTES_SHA256[name]


# ------------------------------ Layout --------------------------------
def test_layout_unit_counts():
    bench = make_bench("Bench1", messages=1)
    layout = layout_message(bench.schema, bench.values[0], SlabAllocator())
    # Root + one nested block -> two pointer hops.
    assert layout.count(UnitKind.HOP) == 2
    expected_desc = 2 * -(-14 // FIELDS_PER_DESCRIPTOR)
    assert layout.count(UnitKind.DESCRIPTOR) == expected_desc


def test_layout_body_lines_track_string_bytes():
    bench = make_bench("Bench5", messages=1)
    layout = layout_message(bench.schema, bench.values[0], SlabAllocator())
    body_bytes = sum(
        len(v) for v in bench.values[0].values() if isinstance(v, str)
    )
    assert layout.count(UnitKind.BODY) >= body_bytes // 64 - 2


def test_root_blocks_contiguous_nested_fragmented():
    allocator = SlabAllocator(seed=1)
    bench = make_bench("Bench1", messages=3)
    layouts = [
        layout_message(bench.schema, v, allocator) for v in bench.values
    ]
    roots = [l.blocks[0].base for l in layouts]
    stride = {b - a for a, b in zip(roots, roots[1:])}
    assert len(stride) == 1  # slab: constant inter-message stride


def test_deep_nesting_means_many_hops():
    """Bench2's 12 levels (root + 11 nested) are 12 blocks, each a HOP,
    one DESCRIPTOR line (4 scalar fields) and one BODY line (a ~30-byte
    string); counting the blocks' lines one by one gives ``count``'s
    closed forms."""
    bench = make_bench("Bench2", messages=1)
    layout = layout_message(bench.schema, bench.values[0], SlabAllocator())
    assert [type(block) for block in layout.blocks] == [Block] * 12
    assert [block[1:] for block in layout.blocks] == [(1, 1)] * 12
    lines = []
    for base, descriptors, body_lines in layout.blocks:
        lines.append((UnitKind.HOP, base))
        for k in range(1, 1 + descriptors + body_lines):
            kind = UnitKind.DESCRIPTOR if k <= descriptors else UnitKind.BODY
            lines.append((kind, base + 64 * k))
    assert len({addr for _, addr in lines}) == len(lines) == 36
    for kind in UnitKind:
        assert layout.count(kind) == sum(1 for k, _ in lines if k is kind) == 12


# ----------------------------- Pipelines ------------------------------
def test_decode_encode_time_monotone_in_stats():
    config = asic_system()
    small = make_bench("Bench1", messages=1).stats[0]
    large = make_bench("Bench5", messages=1).stats[0]
    assert decode_time_ps(config.rpc, large) > decode_time_ps(config.rpc, small)
    assert encode_time_ps(config.rpc, large) > encode_time_ps(config.rpc, small)


def test_pipelines_verify_functionally():
    config = asic_system()
    bench = make_bench("Bench0", messages=10)
    assert RpcNicPipeline(config).deserialize_bench(bench).verified
    assert RpcNicPipeline(config).serialize_bench(bench).verified
    cxl = CxlRpcPipeline(config)
    assert cxl.deserialize_bench(bench).verified
    assert cxl.serialize_bench_mem(bench).verified
    assert cxl.serialize_bench_cache(bench).verified
    assert cxl.serialize_bench_cache(bench, prefetch=True).verified


def _six_pipelines(config, bench):
    cxl = CxlRpcPipeline(config)
    return [
        RpcNicPipeline(config).deserialize_bench(bench),
        RpcNicPipeline(config).serialize_bench(bench),
        cxl.deserialize_bench(bench),
        cxl.serialize_bench_mem(bench),
        cxl.serialize_bench_cache(bench),
        cxl.serialize_bench_cache(bench, prefetch=True),
    ]


def _with_wrong_wire(bench):
    """``bench`` with message 2's wire bytes replaced by message 3's."""
    bench.encoded[2] = bench.encoded[3]
    return bench


def test_a_wire_that_does_not_decode_to_its_value_fails_verification(monkeypatch):
    config = asic_system()
    bench = _with_wrong_wire(make_bench("Bench1", messages=5))
    assert [result.verified for result in _six_pipelines(config, bench)] == [False] * 6

    def make_wrong_bench(name, **kwargs):
        bench = make_bench(name, **kwargs)
        return _with_wrong_wire(bench) if name == "Bench3" else bench

    monkeypatch.setattr(rpc_harness, "make_bench", make_wrong_bench)
    with pytest.raises(AssertionError, match="RpcNIC failed verification on Bench3"):
        run_rpc_comparison(config, messages=5)


def _top_level_calls(call, functions):
    """Calls ``call()`` makes to each of ``functions``, not counting the
    ones a function makes to itself (the codec recurses into nested
    messages)."""
    names = {function.__code__: function.__name__ for function in functions}
    counts = dict.fromkeys(names.values(), 0)

    def count(frame, event, _arg):
        code = frame.f_code
        if event == "call" and code in names and frame.f_back.f_code is not code:
            counts[names[code]] += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        call()
    finally:
        sys.setprofile(previous)
    return counts


def test_rpc_comparison_codes_and_lays_out_each_message_once():
    """Fig. 18's comparison encodes each message once (its wire bytes),
    decodes it once (the round-trip check all six results report) and
    lays it out once (both CXL.cache serializations walk one layout)."""
    counts = _top_level_calls(
        lambda: run_rpc_comparison(asic_system(), messages=200),
        (encode_message, decode_message, layout_message),
    )
    messages = len(BENCH_NAMES) * 200
    assert counts == {
        "encode_message": messages,
        "decode_message": messages,
        "layout_message": messages,
    }


def test_cxl_deserialize_faster_than_rpcnic():
    config = asic_system()
    for name in BENCH_NAMES:
        bench = make_bench(name, messages=20)
        rpc = RpcNicPipeline(config).deserialize_bench(bench)
        cxl = CxlRpcPipeline(config).deserialize_bench(bench)
        assert cxl.total_ps < rpc.total_ps, name


def test_serialization_ordering_matches_paper():
    """mem < cache+pf < cache < RpcNIC for every bench (Fig. 18b)."""
    config = asic_system()
    for name in BENCH_NAMES:
        bench = make_bench(name, messages=30)
        rpc = RpcNicPipeline(config).serialize_bench(bench).total_ps
        cxl = CxlRpcPipeline(config)
        mem = cxl.serialize_bench_mem(bench).total_ps
        cache = cxl.serialize_bench_cache(bench).total_ps
        cache_pf = cxl.serialize_bench_cache(bench, prefetch=True).total_ps
        assert mem < cache_pf <= cache < rpc, name


def test_rpcnic_flushes_scale_with_size():
    config = asic_system()
    pipeline = RpcNicPipeline(config)
    small = pipeline.deserialize_bench(make_bench("Bench1", messages=5))
    large = pipeline.deserialize_bench(make_bench("Bench5", messages=5))
    assert large.mean_ps > small.mean_ps
