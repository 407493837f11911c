"""Sweep telemetry: schema-validated JSONL lifecycle events.

The sweep scheduler appends newline-delimited JSON events to
``<run-dir>/telemetry/scheduler.jsonl`` while a run is in flight.
Readers merge every ``*.jsonl`` file of the directory, sorted by
timestamp.

Every event carries the base fields ``schema``/``ts``/``kind``/
``source`` plus kind-specific required fields (see :data:`EVENT_KINDS`).
:func:`validate_event` enforces the schema on write (always) and on
read (``strict=True``), so a telemetry directory is a machine-checkable
artifact — CI's obs-smoke job validates every event of a real pool
sweep against it.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Dict, List, Tuple

SCHEMA_VERSION = 1

TELEMETRY_DIR = "telemetry"

#: Required kind-specific fields per event kind (beyond the base
#: ``schema``/``ts``/``kind``/``source`` carried by every event).
EVENT_KINDS: Dict[str, Tuple[str, ...]] = {
    "run_started": ("sweep", "total", "cached", "backend", "jobs"),
    "run_finished": ("sweep", "executed", "failed", "wall_s"),
    "spec_cached": ("spec_hash",),
    "record": ("spec_hash", "status", "wall_s"),
}

_BASE_FIELDS = ("schema", "ts", "kind", "source")


class TelemetrySchemaError(ValueError):
    """An event violates the telemetry schema."""


def validate_event(event: object) -> Dict[str, object]:
    """Validate one event against the schema; return it on success.

    Raises :class:`TelemetrySchemaError` naming the offending field in
    the established listing-error style.
    """
    if not isinstance(event, dict):
        raise TelemetrySchemaError(
            f"telemetry event must be an object, got {type(event).__name__}"
        )
    for field in _BASE_FIELDS:
        if field not in event:
            raise TelemetrySchemaError(f"telemetry event missing field {field!r}")
    if event["schema"] != SCHEMA_VERSION:
        raise TelemetrySchemaError(
            f"unsupported telemetry schema {event['schema']!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    if not isinstance(event["ts"], (int, float)) or isinstance(event["ts"], bool):
        raise TelemetrySchemaError(
            f"telemetry field 'ts' must be a number, got {event['ts']!r}"
        )
    kind = event["kind"]
    if kind not in EVENT_KINDS:
        known = ", ".join(sorted(EVENT_KINDS))
        raise TelemetrySchemaError(
            f"unknown telemetry kind {kind!r} (known: {known})"
        )
    for field in EVENT_KINDS[kind]:
        if field not in event:
            raise TelemetrySchemaError(
                f"telemetry kind {kind!r} missing field {field!r}"
            )
    return event


def telemetry_dir(run_dir: Path) -> Path:
    return Path(run_dir) / TELEMETRY_DIR


class TelemetryWriter:
    """Appends schema-validated events to one per-source JSONL file.

    Thread-safe: open-append-close happens under a lock.
    """

    def __init__(self, run_dir: Path, source: str):
        self.source = source
        self.path = telemetry_dir(run_dir) / f"{source}.jsonl"
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self.emitted = 0

    def emit(self, kind: str, **fields: object) -> Dict[str, object]:
        event: Dict[str, object] = {
            "schema": SCHEMA_VERSION,
            "ts": time.time(),
            "kind": kind,
            "source": self.source,
        }
        event.update(fields)
        validate_event(event)
        line = json.dumps(event, sort_keys=True)
        with self._lock:
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(line + "\n")
            self.emitted += 1
        return event


def read_events(
    run_dir: Path, strict: bool = False
) -> Tuple[List[Dict[str, object]], int]:
    """Merge all per-source telemetry files, sorted by timestamp.

    Returns ``(events, skipped)``.  Malformed or schema-violating lines
    are counted and skipped by default (a live run may have a partially
    written final line); ``strict=True`` raises instead — that is what
    CI uses to certify a finished run's telemetry.
    """
    directory = telemetry_dir(run_dir)
    events: List[Dict[str, object]] = []
    skipped = 0
    if not directory.is_dir():
        return events, skipped
    for path in sorted(directory.glob("*.jsonl")):
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    event = validate_event(json.loads(line))
                except (json.JSONDecodeError, TelemetrySchemaError) as exc:
                    if strict:
                        raise TelemetrySchemaError(
                            f"{path.name}:{lineno}: {exc}"
                        ) from exc
                    skipped += 1
                    continue
                events.append(event)
    events.sort(key=lambda e: (e["ts"], e["source"], e["kind"]))
    return events, skipped

