"""Built-in sweep presets.

``quick`` exercises the orchestrator end-to-end in a few seconds (used
by CI smoke runs and the acceptance sweep); ``paper`` regenerates every
table/figure at the paper's default fidelity.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.spec import SweepSpec

PRESETS: Dict[str, dict] = {
    "quick": {
        "name": "quick",
        "repeats": 1,
        "base_seed": 1234,
        "experiments": [
            {"experiment": "table1"},
            {"experiment": "table2"},
            {"experiment": "fig4"},
            {"experiment": "fig12", "params": {"trials": 3}},
            {"experiment": "fig13", "grid": {"trials": [2, 3]}},
            {"experiment": "fig15"},
            {"experiment": "fig17", "params": {"ops": 256}},
            {"experiment": "fig18a", "params": {"messages": 20}},
            {"experiment": "fig18b", "params": {"messages": 20}},
        ],
    },
    "topology": {
        # Multi-device fan-out scenarios over the system-construction
        # layer; quick sizes so CI can sweep them as a smoke test.
        "name": "topology",
        "repeats": 1,
        "base_seed": 1234,
        "experiments": [
            {"experiment": "fanout2", "params": {"count": 8, "trials": 2, "bw_count": 256}},
            {"experiment": "fanout4", "params": {"count": 8, "trials": 2, "bw_count": 256}},
        ],
    },
    "topology-scale": {
        # The topology itself as a sweep axis: device counts 1..8 of the
        # fan-out family, each point hashed/cached independently.
        "name": "topology-scale",
        "repeats": 1,
        "base_seed": 1234,
        "experiments": [
            {
                "experiment": "topo-scale",
                "params": {"count": 8, "trials": 2, "bw_count": 128},
                "grid": {
                    "topology": [f"fanout({n})" for n in range(1, 9)],
                },
            },
        ],
    },
    "workload-mix": {
        # Traffic as a sweep axis: the same LSU-bearing layout driven
        # by four generators (incl. one phase-composed mix), plus
        # coherent generator traffic through per-host supernode
        # systems.  Quick sizes so CI can sweep it as a smoke test.
        "name": "workload-mix",
        "repeats": 1,
        "base_seed": 1234,
        "experiments": [
            {
                "experiment": "workload-mix",
                "params": {"topology": "fanout-2", "streams": 2},
                "grid": {
                    "workload": [
                        "sequential(128)",
                        "zipf(128,1.2)",
                        "producer-consumer(64,16)",
                        "mixed(64)",
                    ],
                },
            },
            {
                "experiment": "supernode-workload",
                "params": {"hosts": 2},
                "grid": {
                    "workload": ["zipf(128,1.2)", "producer-consumer(64,16)"],
                },
            },
        ],
    },
    "fault-tolerance": {
        # Failure as a sweep axis: the same workload/topology pairs
        # driven under every built-in fault plan (plus the fault-free
        # baseline, which must match a plain run bit-for-bit — CI's
        # fault-smoke job asserts exactly that).  Quick sizes so CI
        # can sweep it serially as a smoke test.
        "name": "fault-tolerance",
        "repeats": 1,
        "base_seed": 1234,
        "experiments": [
            {
                "experiment": "fault-tolerance",
                "params": {
                    "topology": "fanout-2",
                    "workload": "zipf(96,1.2)",
                    "streams": 2,
                },
                "grid": {
                    "fault": [
                        "none",
                        "link-degrade",
                        "link-flap",
                        "dev-drop",
                        "msg-corrupt(0.1)",
                        "storm",
                    ],
                },
            },
            {
                "experiment": "fault-tolerance",
                "params": {
                    "topology": "supernode(2)",
                    "workload": "producer-consumer(96,24)",
                },
                "grid": {
                    "fault": [
                        "none",
                        "host-outage",
                        "link-degrade",
                        "storm",
                    ],
                },
            },
        ],
    },
    "significance": {
        # The statistical-analysis acceptance scenario: fanout(4) vs
        # fanout(8) under a skewed workload, 10 repeats with distinct
        # injected seeds per repeat, so `repro analyze` has real
        # distributions to contrast.  streams=8 so both fan-outs'
        # LSU populations are actually exercised — with fewer streams
        # the extra devices idle and the topologies tie exactly.
        "name": "significance",
        "repeats": 10,
        "base_seed": 1234,
        "experiments": [
            {
                "experiment": "workload-mix",
                "params": {"workload": "zipf(192,1.1)", "streams": 8},
                "grid": {
                    "topology": ["fanout(4)", "fanout(8)"],
                },
            },
        ],
    },
    "paper": {
        "name": "paper",
        "repeats": 1,
        "base_seed": 1234,
        "experiments": [
            {"experiment": "table1"},
            {"experiment": "table2"},
            {"experiment": "fig4"},
            {"experiment": "fig12"},
            {"experiment": "fig13"},
            {"experiment": "fig14"},
            {"experiment": "fig15"},
            {"experiment": "fig16"},
            {"experiment": "fig17"},
            {"experiment": "fig18a"},
            {"experiment": "fig18b"},
            {"experiment": "headline"},
            {"experiment": "mape"},
        ],
    },
}


def preset_sweep(name: str) -> SweepSpec:
    """Build the named preset's :class:`SweepSpec`."""
    try:
        data = PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown sweep preset {name!r}; options: {sorted(PRESETS)}"
        ) from None
    return SweepSpec.from_dict(data)
