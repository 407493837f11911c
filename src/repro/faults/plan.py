"""Declarative fault plans: named, schema-validated failure timelines.

A :class:`FaultPlan` is the *adversity* of a simulated scenario the
same way a :class:`~repro.system.topology.Topology` is its shape and a
:class:`~repro.workloads.base.Workload` is its traffic: a declarative,
registry-addressable object that expands into a timeline of
:class:`FaultEvent`\\ s — a host going down and coming back, a link
degrading by a latency factor, a flapping link, a device dropping off
the bus, a lossy link corrupting messages.  The
:class:`~repro.faults.controller.FaultController` installs a plan
against any builder-constructed system and answers time-windowed
queries while a workload runs.

Plans register by name in :data:`FAULT_PLANS`, a
:class:`~repro.system.registry.Registry` like the topology and workload
ones, so harnesses, sweep grids and the CLI (``repro fault
list|show|validate``) can refer to a failure scenario with a plain
string or a reference like ``"link-degrade(8)"``, and they round-trip
through plain JSON (:func:`load_fault_plan`, ``FAULT_PLANS.dump``) with
full schema validation — every malformed input raises
:class:`FaultSchemaError` naming the offending field, mirroring
:class:`~repro.system.topology.TopologySchemaError` and
:class:`~repro.workloads.base.WorkloadSchemaError`.

Event targets name topology elements: a plain node name
(``"host0"``) or a link written ``"a--b"`` (order-insensitive).  A
plan does **not** hard-bind to one topology — events whose targets
match nothing in the installed system are *inert* (recorded, not
errors), so the same plan sweeps across a topology grid.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple

from repro.system.registry import Registry


class FaultSchemaError(ValueError):
    """A fault plan (dict or JSON file) or fault reference is malformed.

    Every malformed input — wrong container types, unknown keys,
    missing per-kind fields, out-of-range values — raises this one
    type with a message naming the offending field, so callers never
    see a bare ``KeyError``.
    """


class UnknownFaultPlanError(ValueError):
    """A name/reference does not identify a registered fault plan.

    Listing-style, matching
    :class:`repro.system.topology.UnknownTopologyError`: the message
    always enumerates the valid options.
    """


#: Link separator in event targets: ``"dev0--host"`` names the edge
#: between ``dev0`` and ``host`` regardless of endpoint order.
LINK_SEP = "--"


@dataclass(frozen=True)
class FaultEvent:
    """One timed failure (and its paired recovery) on one target.

    ``at_ps`` is the onset; ``for_ps`` is the outage duration, so the
    paired recovery happens at ``at_ps + for_ps`` (``None`` means the
    fault persists to the end of the run).  Kind-specific knobs:
    ``factor`` (link_degrade latency multiplier), ``period_ps`` /
    ``duty`` (link_flap cycle and down-fraction), ``rate``
    (msg_corrupt probability per message).
    """

    kind: str
    target: str
    at_ps: int = 0
    for_ps: Optional[int] = None
    factor: Optional[float] = None
    period_ps: Optional[int] = None
    duty: Optional[float] = None
    rate: Optional[float] = None

    KINDS = ("host_down", "link_degrade", "link_flap", "device_drop", "msg_corrupt")
    #: Kinds whose target is a ``"a--b"`` link (the rest target nodes).
    LINK_KINDS = ("link_degrade", "link_flap", "msg_corrupt")
    #: Kind -> the extra fields it requires (all others must stay unset).
    KIND_FIELDS = {
        "host_down": (),
        "device_drop": (),
        "link_degrade": ("factor",),
        "link_flap": ("period_ps", "duty"),
        "msg_corrupt": ("rate",),
    }

    def __post_init__(self) -> None:
        def fail(msg: str) -> None:
            raise FaultSchemaError(f"fault event {self.kind!r} on {self.target!r}: {msg}")

        if self.kind not in self.KINDS:
            raise FaultSchemaError(
                f"fault event kind must be one of {', '.join(self.KINDS)}; "
                f"got {self.kind!r}"
            )
        if not isinstance(self.target, str) or not self.target:
            fail(f"'target' must be a non-empty string, got {self.target!r}")
        if self.is_link:
            ends = self.target.split(LINK_SEP)
            if len(ends) != 2 or not all(ends):
                fail(
                    f"'target' must name a link as 'a{LINK_SEP}b', "
                    f"got {self.target!r}"
                )
        elif LINK_SEP in self.target:
            fail(f"'target' must be a node name, not a link ({self.target!r})")
        if not isinstance(self.at_ps, int) or isinstance(self.at_ps, bool) or self.at_ps < 0:
            fail(f"'at_ps' must be a non-negative integer, got {self.at_ps!r}")
        if self.for_ps is not None and (
            not isinstance(self.for_ps, int)
            or isinstance(self.for_ps, bool)
            or self.for_ps <= 0
        ):
            fail(f"'for_ps' must be a positive integer or null, got {self.for_ps!r}")
        required = self.KIND_FIELDS[self.kind]
        for name in ("factor", "period_ps", "duty", "rate"):
            value = getattr(self, name)
            if name in required and value is None:
                fail(f"missing required field {name!r}")
            if name not in required and value is not None:
                fail(f"field {name!r} does not apply to kind {self.kind!r}")
        if self.factor is not None and (
            not isinstance(self.factor, (int, float))
            or isinstance(self.factor, bool)
            or self.factor < 1
        ):
            fail(f"'factor' must be a number >= 1, got {self.factor!r}")
        if self.period_ps is not None and (
            not isinstance(self.period_ps, int)
            or isinstance(self.period_ps, bool)
            or self.period_ps <= 0
        ):
            fail(f"'period_ps' must be a positive integer, got {self.period_ps!r}")
        if self.duty is not None and (
            not isinstance(self.duty, (int, float))
            or isinstance(self.duty, bool)
            or not 0 < self.duty < 1
        ):
            fail(f"'duty' must be a fraction in (0, 1), got {self.duty!r}")
        if self.rate is not None and (
            not isinstance(self.rate, (int, float))
            or isinstance(self.rate, bool)
            or not 0 < self.rate <= 1
        ):
            fail(f"'rate' must be a probability in (0, 1], got {self.rate!r}")

    @property
    def is_link(self) -> bool:
        return self.kind in self.LINK_KINDS

    @property
    def link_key(self) -> Tuple[str, str]:
        """Order-insensitive link identity (sorted endpoint pair)."""
        a, b = self.target.split(LINK_SEP)
        return tuple(sorted((a, b)))  # type: ignore[return-value]

    @property
    def recovers_at_ps(self) -> Optional[int]:
        """Paired recovery time, or ``None`` for an unrecovered fault."""
        return None if self.for_ps is None else self.at_ps + self.for_ps

    def active_at(self, t_ps: int) -> bool:
        """Is this fault in effect at ``t_ps``?

        A flap is active only during the *down* fraction of each period
        (the first ``duty * period_ps`` of every cycle inside its
        window); every other kind is active for its whole window.
        """
        if t_ps < self.at_ps:
            return False
        end = self.recovers_at_ps
        if end is not None and t_ps >= end:
            return False
        if self.kind == "link_flap":
            phase = (t_ps - self.at_ps) % self.period_ps
            return phase < self.duty * self.period_ps
        return True

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON form; only the fields this kind carries."""
        data: Dict[str, object] = {"kind": self.kind, "target": self.target}
        if self.at_ps:
            data["at_ps"] = self.at_ps
        if self.for_ps is not None:
            data["for_ps"] = self.for_ps
        for name in self.KIND_FIELDS[self.kind]:
            data[name] = getattr(self, name)
        return data

    def describe(self) -> str:
        """One-line rendering used by ``repro fault show``."""
        knobs = ", ".join(
            f"{name}={getattr(self, name)}" for name in self.KIND_FIELDS[self.kind]
        )
        window = f"at {self.at_ps / 1e6:g}us"
        if self.for_ps is not None:
            window += f" for {self.for_ps / 1e6:g}us"
        else:
            window += " onward"
        return f"{self.kind:<13} {self.target:<16} {window}" + (
            f"  [{knobs}]" if knobs else ""
        )


@dataclass(frozen=True)
class FaultPlan:
    """A named timeline of fault events (possibly empty: the baseline)."""

    name: str
    description: str = ""
    events: Tuple[FaultEvent, ...] = ()

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON form; inverse of :meth:`from_dict`."""
        return {
            "name": self.name,
            "description": self.description,
            "events": [event.to_dict() for event in self.events],
        }

    _TOP_KEYS = frozenset({"name", "description", "events"})
    _EVENT_KEYS = frozenset(
        {"kind", "target", "at_ps", "for_ps", "factor", "period_ps", "duty", "rate"}
    )

    @classmethod
    def from_dict(
        cls, data: Mapping[str, object], default_name: Optional[str] = None
    ) -> "FaultPlan":
        """Parse the JSON plan format with full schema validation.

        Every malformed input raises :class:`FaultSchemaError` with a
        message naming the offending field, so a broken plan fails at
        load time, not mid-sweep.
        """
        if not isinstance(data, Mapping):
            raise FaultSchemaError(
                f"fault plan must be a JSON object, got {type(data).__name__}"
            )
        unknown = sorted(set(data) - cls._TOP_KEYS)
        if unknown:
            raise FaultSchemaError(
                f"fault plan has unknown key(s) {', '.join(map(repr, unknown))}; "
                f"valid keys: {', '.join(sorted(cls._TOP_KEYS))}"
            )
        name = data.get("name", default_name)
        if not isinstance(name, str) or not name:
            raise FaultSchemaError(
                f"fault plan needs a non-empty string 'name' (got {name!r})"
            )

        def fail(msg: str) -> None:
            raise FaultSchemaError(f"fault plan {name!r}: {msg}")

        description = data.get("description", "")
        if not isinstance(description, str):
            fail(f"'description' must be a string, got {description!r}")

        raw_events = data.get("events", [])
        if isinstance(raw_events, (str, bytes)) or not isinstance(
            raw_events, (list, tuple)
        ):
            fail(f"'events' must be a list of event objects, got {raw_events!r}")
        events: List[FaultEvent] = []
        for i, entry in enumerate(raw_events):
            if not isinstance(entry, Mapping):
                fail(f"events[{i}] must be an object, got {entry!r}")
            bad = sorted(set(entry) - cls._EVENT_KEYS)
            if bad:
                fail(
                    f"events[{i}] has unknown key(s) {', '.join(map(repr, bad))}; "
                    f"valid keys: {', '.join(sorted(cls._EVENT_KEYS))}"
                )
            kind = entry.get("kind")
            if not isinstance(kind, str) or not kind:
                fail(f"events[{i}] needs a non-empty string 'kind' (got {kind!r})")
            target = entry.get("target")
            if not isinstance(target, str) or not target:
                fail(f"events[{i}] needs a non-empty string 'target' (got {target!r})")
            try:
                events.append(FaultEvent(**{k: entry[k] for k in entry}))
            except FaultSchemaError as exc:
                fail(f"events[{i}]: {exc}")
            except TypeError as exc:  # pragma: no cover - guarded by key check
                fail(f"events[{i}]: {exc}")
        return cls(name=name, description=description, events=tuple(events))

    def describe(self) -> str:
        """Multi-line rendering used by ``repro fault show``."""
        lines = [f"fault plan {self.name}"]
        if self.description:
            lines.append(f"  {self.description}")
        lines.append(f"  events ({len(self.events)}):")
        for event in self.events:
            lines.append(f"    {event.describe()}")
        if not self.events:
            lines.append("    (none — fault-free baseline)")
        return "\n".join(lines)


def corrupt_draw(seed: int, key: str, index: int, rate: float) -> bool:
    """Deterministic pseudo-random corruption draw.

    Hash-based (not :mod:`random`) so fault outcomes depend only on
    ``(seed, key, index)`` — the same seed and plan reproduce an
    identical run, which is what the determinism and record→replay
    parity guarantees rest on.  Shared by the fault controller and the
    RPC wire-corruption path so the two layers cannot drift.
    """
    if rate <= 0:
        return False
    if rate >= 1:
        return True
    token = f"{seed}:{key}:{index}".encode()
    return (zlib.crc32(token) % 1_000_000) < int(rate * 1_000_000)


# ---------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------
FAULT_PLANS = Registry("fault plan", FaultPlan, UnknownFaultPlanError, FaultSchemaError)
register_fault_plan = FAULT_PLANS.register
fault_plan_by_name = FAULT_PLANS.resolve
resolve_fault_plan = FAULT_PLANS.resolve
load_fault_plan = FAULT_PLANS.load

#: Shipped JSON plans (repo checkouts only; absent in installed trees).
SHIPPED_FAULT_DIR = Path(__file__).resolve().parents[3] / "examples" / "faults"
