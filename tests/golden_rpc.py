"""Golden Fig. 18 timings of every RPC design, to the picosecond.

Each case is one HyperProtoBench bench at Fig. 18's 200 messages and
seed 11, run through the six designs ``run_rpc_comparison`` compares on
one calibrated profile.  For each design it records the exact
``total_ps`` and a sha256 prefix of the per-message picoseconds: ``repro
run all`` prints Fig. 18 in microseconds at two decimals, so a drift of
a few picoseconds per message cannot show there.  It also runs the
CXL.cache serializer with ``MultiStridePrefetcher(degree=d)`` for
d = 1, 2, 4 and 8, and records the same timings plus the prefetcher's
``misses_observed`` and ``prefetches_issued``: the walk must make the
same prefetcher calls in the same order.  ``test_golden_rpc.py`` diffs
a fresh run against the stored file.

Regenerate (only on a deliberate behaviour change), from the repo root::

    PYTHONPATH=src python tests/golden_rpc.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Tuple

GOLDEN_PATH = Path(__file__).with_name("data") / "golden_rpc.json"

MESSAGES = 200
SEED = 11
DEGREES = (1, 2, 4, 8)

_BENCHES = ("Bench0", "Bench1", "Bench2", "Bench3", "Bench4", "Bench5")

#: ``(profile, bench)``; one bench and one pipeline pair each.
CASES: Tuple[Tuple[str, str], ...] = tuple(
    (profile, bench) for profile in ("asic", "fpga") for bench in _BENCHES
)


def case_name(profile: str, bench: str) -> str:
    return f"{profile}-{bench}"


def _timings(per_message_ps: List[int]) -> Dict[str, object]:
    text = ",".join(str(ps) for ps in per_message_ps)
    return {
        "total_ps": sum(per_message_ps),
        "per_message_sha256": hashlib.sha256(text.encode()).hexdigest()[:16],
    }


def measure_case(profile: str, bench_name: str) -> Dict[str, object]:
    from repro.config import system_by_name
    from repro.nic.prefetcher import MultiStridePrefetcher
    from repro.rpc.cxl_rpc import CxlRpcPipeline
    from repro.rpc.hyperprotobench import make_bench
    from repro.rpc.rpcnic import RpcNicPipeline

    config = system_by_name(profile)
    bench = make_bench(bench_name, messages=MESSAGES, seed=SEED)
    rpcnic = RpcNicPipeline(config)
    cxl = CxlRpcPipeline(config)
    designs = {
        "deser_rpcnic": rpcnic.deserialize_bench(bench),
        "deser_cxl": cxl.deserialize_bench(bench),
        "ser_rpcnic": rpcnic.serialize_bench(bench),
        "ser_cxl_mem": cxl.serialize_bench_mem(bench),
        "ser_cxl_cache": cxl.serialize_bench_cache(bench, prefetch=False),
        "ser_cxl_cache_pf": cxl.serialize_bench_cache(bench, prefetch=True),
    }
    prefetch = {}
    for degree in DEGREES:
        prefetcher = MultiStridePrefetcher(degree=degree)
        result = cxl.serialize_bench_cache(bench, prefetcher=prefetcher)
        prefetch[f"degree{degree}"] = {
            **_timings(result.per_message_ps),
            "misses_observed": prefetcher.misses_observed,
            "prefetches_issued": prefetcher.prefetches_issued,
        }
    return {
        "name": case_name(profile, bench_name),
        "designs": {
            design: _timings(result.per_message_ps)
            for design, result in designs.items()
        },
        "prefetch": prefetch,
    }


def render() -> str:
    """The golden file's exact text for the current code."""
    cases = [measure_case(*case) for case in CASES]
    return json.dumps({"cases": cases}, indent=1) + "\n"


if __name__ == "__main__":
    GOLDEN_PATH.write_text(render())
    print(f"wrote {GOLDEN_PATH}")
