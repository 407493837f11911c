"""Vectorized workload hot paths: OpBatch.

The contracts under test: every builtin generator's batch and scalar
views are the same stream (``ops()`` derives from ``batch()``, and a
``from_ops`` round trip is exact); and re-striping and concatenation
are the array twins of their scalar counterparts.
"""

import numpy as np
import pytest

from repro.mem.address import CACHELINE
from repro.workloads import (
    KIND_READ,
    KIND_WRITE,
    OpBatch,
    WorkloadOp,
    numpy_rng,
    WORKLOADS,
    resolve_workload,
)
from repro.workloads.base import WorkloadSchemaError


# ----------------------- batch/scalar parity --------------------------
@pytest.mark.parametrize("name", WORKLOADS.names())
def test_batch_and_scalar_views_are_the_same_stream(name):
    workload = resolve_workload(name)
    assert workload.batch(seed=42).to_ops() == workload.ops(seed=42)


@pytest.mark.parametrize("name", WORKLOADS.names())
def test_batches_are_deterministic_under_fixed_seed(name):
    workload = resolve_workload(name)
    first = workload.batch(seed=7)
    second = workload.batch(seed=7)
    for column in ("kinds", "addrs", "sizes", "delays", "streams"):
        assert np.array_equal(getattr(first, column), getattr(second, column))


def test_from_ops_round_trip_is_exact():
    ops = [
        WorkloadOp("read", 0x40, 64, 0, 0),
        WorkloadOp("write", 0x80, 64, 120, 1),
        WorkloadOp("read", 0x1000, 32, 0, 2),
    ]
    assert OpBatch.from_ops(ops).to_ops() == ops


def test_scalar_only_generators_columnarize_through_batch():
    # pointer-chase has no generate_batch (dependent walk); batch()
    # falls back to columnarizing the scalar stream.
    workload = resolve_workload("pointer-chase(64,16)")
    assert workload.generate_batch is None
    assert workload.batch(seed=3).to_ops() == workload.ops(seed=3)


# ------------------------- explicit shapes ----------------------------
def test_sequential_batch_is_strided_reads():
    batch = resolve_workload("sequential(8,2)").batch(seed=0)
    assert batch.addrs.tolist() == [i * 2 * CACHELINE for i in range(8)]
    assert not batch.kinds.any()
    assert batch.read_count == 8 and batch.write_count == 0


def test_producer_consumer_batch_interleaves_write_read_pairs():
    batch = resolve_workload("producer-consumer(4,2)").batch(seed=0)
    assert batch.kinds.tolist() == [KIND_WRITE, KIND_READ] * 4
    assert batch.streams.tolist() == [0, 1] * 4
    # Pair i touches line i % lines, writer and reader on the same addr.
    assert batch.addrs.tolist() == [
        0, 0, CACHELINE, CACHELINE, 0, 0, CACHELINE, CACHELINE
    ]


def test_zipf_batch_skews_toward_low_ranks():
    batch = resolve_workload("zipf(4096,1.4)").batch(seed=11)
    top = int(np.count_nonzero(batch.addrs == 0))
    assert top > 4096 // 16  # rank 0 far above the uniform share


# --------------------------- batch algebra ----------------------------
def test_restripe_round_robins_rows():
    batch = OpBatch.reads(np.arange(7))
    striped = batch.restripe(3)
    assert striped.streams.tolist() == [0, 1, 2, 0, 1, 2, 0]
    assert np.array_equal(striped.addrs, batch.addrs)
    with pytest.raises(WorkloadSchemaError, match="streams >= 1"):
        batch.restripe(0)


def test_concat_preserves_order():
    a = OpBatch.reads(np.arange(3))
    b = OpBatch.reads(np.arange(2) + 10)
    joined = a.concat([b])
    assert joined.addrs.tolist() == (
        a.addrs.tolist() + b.addrs.tolist()
    )
    assert len(joined) == 5


def test_batch_validates_columns():
    with pytest.raises(WorkloadSchemaError, match="rows"):
        OpBatch(kinds=[0, 0], addrs=[0], sizes=[64], delays=[0], streams=[0])
    with pytest.raises(WorkloadSchemaError, match="KIND_READ"):
        OpBatch(kinds=[7], addrs=[0], sizes=[64], delays=[0], streams=[0])


def _columns(**bad):
    columns = dict(
        kinds=[0, 1, 0], addrs=[0, 64, 128], sizes=[64, 64, 64],
        delays=[0, 10, 20], streams=[0, 1, 0],
    )
    columns.update(bad)
    return columns


@pytest.mark.parametrize("column, values, row, wording", [
    ("addrs", [0, 64, -128], 2, "non-negative"),
    ("sizes", [64, 0, 64], 1, "positive"),
    ("sizes", [-64, 64, 64], 0, "positive"),
    ("delays", [0, -1, 20], 1, "non-negative"),
    ("streams", [0, 1, -3], 2, "non-negative"),
])
def test_batch_rejects_what_workload_op_rejects(column, values, row, wording):
    message = (
        f"'{column}' must hold {wording} integers, got {values[row]} at row {row}"
    )
    with pytest.raises(WorkloadSchemaError, match=message):
        OpBatch(**_columns(**{column: values}))
    # WorkloadOp refuses the same value in its scalar field.
    field = {
        "addrs": "addr", "sizes": "size", "delays": "delay_ps", "streams": "stream"
    }[column]
    with pytest.raises(WorkloadSchemaError):
        WorkloadOp(**{"kind": "read", "addr": 0, field: values[row]})


def test_driver_surfaces_batch_validation_errors():
    from repro.config import asic_system
    from repro.workloads import Workload, WorkloadDriver

    bad = Workload(
        "bad-delays",
        generate_batch=lambda rng: OpBatch(**_columns(delays=[0, 5, -7])),
    )
    # The LSU chains schedule think time unchecked: the batch check is
    # the only guard against a negative delay rewinding simulated time.
    for topology in ("supernode(2)", "fanout-2"):
        with pytest.raises(WorkloadSchemaError, match="'delays'.*-7 at row 2"):
            WorkloadDriver(asic_system()).run(bad, topology=topology, seed=1)


def test_numpy_rng_is_seed_deterministic():
    import random

    a = numpy_rng(random.Random(5)).random(8)
    b = numpy_rng(random.Random(5)).random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, numpy_rng(random.Random(6)).random(8))
