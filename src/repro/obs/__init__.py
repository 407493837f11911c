"""Unified observability layer: telemetry, timeline, profiling.

Three pieces, one contract — **zero overhead when off**:

* :mod:`repro.obs.telemetry` — schema-validated JSONL lifecycle events
  from the sweep scheduler.
* :mod:`repro.obs.timeline` — their reader: Chrome-trace
  ``repro timeline``.
* :mod:`repro.obs.profiler` — opt-in (``--profile``) simulator
  profiling with per-component event and time attribution.
"""

from repro.obs.profiler import SimProfiler, profile
from repro.obs.telemetry import (
    EVENT_KINDS,
    SCHEMA_VERSION,
    TelemetrySchemaError,
    TelemetryWriter,
    read_events,
    telemetry_dir,
    validate_event,
)
from repro.obs.timeline import build_timeline, write_timeline

__all__ = [
    "EVENT_KINDS",
    "SCHEMA_VERSION",
    "SimProfiler",
    "TelemetrySchemaError",
    "TelemetryWriter",
    "build_timeline",
    "profile",
    "read_events",
    "telemetry_dir",
    "validate_event",
    "write_timeline",
]
