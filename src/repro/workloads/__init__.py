"""Declarative workload subsystem: traffic as first-class objects.

``Workload``s are named, seeded, deterministic streams of timed memory
operations, registered like topologies and component kinds so every
access pattern is a registry entry instead of a harness::

    from repro.config import fpga_system
    from repro.workloads import WorkloadDriver
    m = WorkloadDriver(fpga_system()).run("zipf(256,1.2)", topology="fanout-2")

The layers:

* :mod:`repro.workloads.base` — the ``Workload``/``WorkloadOp``
  abstraction and its registry, which resolves ``"name(args)"``
  references.
* :mod:`repro.workloads.vectorized` — ``OpBatch``, the columnar numpy
  form of a stream; batch-native generators expand straight to arrays
  and ``ops()`` derives the scalar view from the batch.
* :mod:`repro.workloads.generators` — the synthetic library
  (sequential/strided, uniform, Zipf, pointer-chase, producer-consumer,
  read/write mixes) plus the ``phases([...])`` composition combinator.
* :mod:`repro.workloads.trace` — compact JSONL record/replay with
  schema validation, for bit-identical re-driving of any run.
* :mod:`repro.workloads.driver` — ``WorkloadDriver`` issuing streams
  through builder-constructed systems (LSU-bearing layouts and
  per-host Supernode systems alike).

The CLI exposes the subsystem as ``repro workload
list|show|record|replay``; sweeps take ``workload`` as a validated
grid axis.
"""

from repro.workloads.base import (
    WORKLOADS,
    UnknownWorkloadError,
    Workload,
    WorkloadOp,
    WorkloadSchemaError,
    register_workload,
    resolve_workload,
)
from repro.workloads.driver import (
    WINDOW_BASE,
    WorkloadDriver,
    WorkloadDriverError,
    WorkloadMeasurement,
)

# Importing the library registers every built-in generator.
from repro.workloads.generators import phases  # noqa: E402
from repro.workloads.vectorized import (
    KIND_READ,
    KIND_WRITE,
    OpBatch,
    numpy_rng,
)
from repro.workloads.trace import (
    TRACE_SCHEMA,
    dump_trace,
    load_trace,
    op_from_list,
    op_to_list,
    parse_trace,
)

__all__ = [
    "WORKLOADS",
    "UnknownWorkloadError",
    "Workload",
    "WorkloadOp",
    "WorkloadSchemaError",
    "register_workload",
    "resolve_workload",
    "WINDOW_BASE",
    "WorkloadDriver",
    "WorkloadDriverError",
    "WorkloadMeasurement",
    "phases",
    "KIND_READ",
    "KIND_WRITE",
    "OpBatch",
    "numpy_rng",
    "TRACE_SCHEMA",
    "dump_trace",
    "load_trace",
    "op_from_list",
    "op_to_list",
    "parse_trace",
]
