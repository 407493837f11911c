"""The ``sim_parallel`` option is gone with the windowed supernode model.

Supernode topologies have one timing model, the exact synchronous path.
A sweep file that still carries ``sim_parallel`` must fail validation
up front, before any spec runs, rather than be silently ignored.
"""

import pytest

from repro.experiments.spec import SpecError, SweepSpec


def test_sweep_spec_validates_sim_parallel_up_front():
    spec = SweepSpec.from_dict({
        "name": "bad",
        "experiments": [{
            "experiment": "supernode-workload",
            "grid": {"sim_parallel": ["bananas"]},
        }],
    })
    with pytest.raises(SpecError, match="sim_parallel"):
        spec.validate()
