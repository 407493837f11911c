"""Chrome trace-event export: ``repro timeline <run-dir>``.

Converts a run directory's telemetry into the Chrome trace-event JSON
format (the ``{"traceEvents": [...]}`` object form), loadable in
Perfetto or ``chrome://tracing``.  Each telemetry source becomes a
trace thread of the scheduler process.  Each persisted record renders
as a complete ("X") slice spanning its spec's wall duration, and run
start/finish as instants.

Timestamps: trace-event ``ts`` is microseconds.  All events are
rebased to the earliest telemetry timestamp so traces start near zero
rather than at the Unix epoch (Perfetto handles either, humans prefer
the former).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.obs.telemetry import read_events

TIMELINE_FILE = "timeline.json"

_SCHEDULER_PID = 1


def build_timeline(run_dir: Union[str, Path]) -> Dict[str, object]:
    """Telemetry -> trace-event JSON object (pure; no file output)."""
    events, _skipped = read_events(run_dir)
    trace: List[Dict[str, object]] = []
    if not events:
        return {"traceEvents": trace, "displayTimeUnit": "ms"}
    epoch = min(float(e["ts"]) for e in events)  # type: ignore[arg-type]

    def us(ts: object) -> float:
        return (float(ts) - epoch) * 1e6  # type: ignore[arg-type]

    # One trace thread per source; metadata rows name them.
    tids: Dict[str, int] = {}

    def thread_for(event: Dict[str, object]) -> Dict[str, int]:
        name = f"scheduler ({event['source']})"
        if name not in tids:
            tids[name] = len(tids) + 1
            trace.append(
                {
                    "ph": "M", "name": "process_name", "pid": _SCHEDULER_PID,
                    "tid": 0, "args": {"name": name},
                }
            )
            trace.append(
                {
                    "ph": "M", "name": "thread_name", "pid": _SCHEDULER_PID,
                    "tid": tids[name], "args": {"name": "specs"},
                }
            )
        return {"pid": _SCHEDULER_PID, "tid": tids[name]}

    for event in events:
        kind = event["kind"]
        where = thread_for(event)
        if kind == "record":
            wall_s = float(event["wall_s"])  # type: ignore[arg-type]
            trace.append(
                {
                    "ph": "X",
                    "name": str(event.get("label") or event["spec_hash"]),
                    "cat": "spec",
                    "ts": us(event["ts"]) - wall_s * 1e6,
                    "dur": wall_s * 1e6,
                    "args": {
                        "spec_hash": event["spec_hash"],
                        "status": event["status"],
                    },
                    **where,
                }
            )
        elif kind in ("run_started", "run_finished"):
            trace.append(
                {
                    "ph": "i", "name": str(kind), "cat": "lifecycle",
                    "s": "p", "ts": us(event["ts"]), "args": {},
                    **where,
                }
            )
    return {"traceEvents": trace, "displayTimeUnit": "ms"}


def write_timeline(
    run_dir: Union[str, Path], out: Optional[Union[str, Path]] = None
) -> Path:
    """Export the run's trace to ``out`` (default ``<run-dir>/timeline.json``)."""
    run_dir = Path(run_dir)
    out_path = Path(out) if out is not None else run_dir / TIMELINE_FILE
    timeline = build_timeline(run_dir)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(timeline) + "\n")
    return out_path
