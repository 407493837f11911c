"""FaultController: install a plan against a built system, answer queries.

The controller is the runtime half of the faults layer.  It binds a
:class:`~repro.faults.plan.FaultPlan` to one
:class:`~repro.system.builder.BuiltSystem`:

* events whose targets match a node or link of the installed topology
  become *matched* (the rest are inert — recorded in
  :attr:`FaultController.unmatched`, so a plan stays portable across a
  topology sweep grid);
* matched ``link_degrade`` events wrap the owning device's
  :class:`~repro.interconnect.flexbus.FlexBus` so its one-way PHY
  latency is multiplied by the active degrade factor at simulator time
  — all DCOH traffic through that link genuinely slows;
* matched ``host_down`` events drive
  :meth:`repro.core.supernode.Supernode.set_host_available`, so a down
  host NAKs coherent accesses with
  :class:`~repro.core.supernode.HostDownError`.

Mode selects what happens when an op meets an active fault:
``"strict"`` (the default everywhere) preserves today's fail-loud
semantics — the op raises :class:`FaultActiveError` (or the supernode's
``HostDownError``); ``"degraded"`` opts into graceful degradation —
bounded retry-with-backoff per :class:`RetryPolicy`, then count-and-drop.
:class:`FaultStats` accumulates the availability/recovery metrics the
driver folds into its measurement series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.faults.plan import FaultEvent, FaultPlan, corrupt_draw

MODES = ("strict", "degraded")

LinkKey = Tuple[str, str]


class FaultActiveError(RuntimeError):
    """Strict mode: an operation hit an active fault (fail-loud path)."""


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry-with-backoff for degraded-mode paths.

    ``delay_ps(attempt)`` grows exponentially (``backoff_ps << attempt``)
    so repeated NAKs back off instead of hammering a down target; after
    ``max_retries`` failed attempts the op is dropped (and counted).
    """

    max_retries: int = 3
    backoff_ps: int = 500_000  # 500 ns between first retry and the NAK

    def __post_init__(self) -> None:
        if not isinstance(self.max_retries, int) or self.max_retries < 0:
            raise ValueError(
                f"retry policy max_retries must be a non-negative integer, "
                f"got {self.max_retries!r}"
            )
        if not isinstance(self.backoff_ps, int) or self.backoff_ps < 0:
            raise ValueError(
                f"retry policy backoff_ps must be a non-negative integer, "
                f"got {self.backoff_ps!r}"
            )

    def delay_ps(self, attempt: int) -> int:
        return self.backoff_ps << min(attempt, 16)


@dataclass
class FaultStats:
    """Availability/recovery accounting for one faulted run."""

    attempted: int = 0
    completed: int = 0
    dropped: int = 0
    retries: int = 0
    corrupted: int = 0
    completion_times_ps: List[int] = field(default_factory=list)

    def record_attempt(self) -> None:
        self.attempted += 1

    def record_completion(self, t_ps: int) -> None:
        self.completed += 1
        self.completion_times_ps.append(t_ps)

    def record_drop(self) -> None:
        self.dropped += 1

    def record_retry(self, count: int = 1) -> None:
        self.retries += count

    def record_corrupt(self) -> None:
        self.corrupted += 1

    @property
    def availability(self) -> float:
        """Fraction of attempted ops that completed (1.0 when idle)."""
        return self.completed / self.attempted if self.attempted else 1.0


def _merge_windows(
    windows: List[Tuple[int, Optional[int]]], end_ps: int
) -> int:
    """Total length of the union of ``[start, end)`` windows, clipped."""
    clipped = []
    for start, end in windows:
        stop = end_ps if end is None else min(end, end_ps)
        if stop > start:
            clipped.append((start, stop))
    total = 0
    cursor = -1
    for start, stop in sorted(clipped):
        start = max(start, cursor)
        if stop > start:
            total += stop - start
            cursor = stop
        cursor = max(cursor, stop)
    return total


class FaultController:
    """Bind one fault plan to one built system and track its effects."""

    def __init__(
        self,
        plan: FaultPlan,
        seed: int = 1234,
        mode: str = "strict",
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        if mode not in MODES:
            raise ValueError(
                f"fault mode must be one of {', '.join(MODES)}; got {mode!r}"
            )
        self.plan = plan
        self.seed = seed
        self.mode = mode
        self.retry = retry if retry is not None else RetryPolicy()
        self.stats = FaultStats()
        self.matched: Tuple[FaultEvent, ...] = ()
        self.unmatched: Tuple[FaultEvent, ...] = ()
        self.end_ps: int = 0
        self._installed = False
        self._draws = 0
        self._wrapped: Set[int] = set()
        self._degrades: Dict[LinkKey, List[FaultEvent]] = {}
        self._flaps: Dict[LinkKey, List[FaultEvent]] = {}
        self._corrupts: Dict[LinkKey, List[FaultEvent]] = {}
        self._node_downs: Dict[str, List[FaultEvent]] = {}

    @property
    def degraded(self) -> bool:
        return self.mode == "degraded"

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self, system) -> "FaultController":
        """Match plan events against ``system``'s topology and hook in.

        Idempotent per controller instance (a controller serves one
        run).  Unmatched events are inert by design: the same plan can
        ride a sweep across fan-out *and* supernode topologies, with
        each family feeling only the events that name its elements.
        """
        if self._installed:
            raise RuntimeError("fault controller already installed")
        self._installed = True
        topology = system.topology
        node_names = {spec.name for spec in topology.nodes}
        link_keys = {
            tuple(sorted((link.a, link.b))) for link in topology.links
        }
        matched: List[FaultEvent] = []
        unmatched: List[FaultEvent] = []
        for event in self.plan.events:
            if event.is_link:
                if event.link_key in link_keys:
                    matched.append(event)
                    bucket = {
                        "link_degrade": self._degrades,
                        "link_flap": self._flaps,
                        "msg_corrupt": self._corrupts,
                    }[event.kind]
                    bucket.setdefault(event.link_key, []).append(event)
                else:
                    unmatched.append(event)
            elif event.target in node_names:
                matched.append(event)
                self._node_downs.setdefault(event.target, []).append(event)
            else:
                unmatched.append(event)
        self.matched = tuple(matched)
        self.unmatched = tuple(unmatched)
        for key in self._degrades:
            self._wrap_link(system, key)
        return self

    def _wrap_link(self, system, key: LinkKey) -> None:
        """Make a degraded link's FlexBus time-varying.

        The FlexBus belongs to the device endpoint of the link; its
        ``oneway_at`` and ``oneway_ps`` are swapped (via a dynamic
        subclass) for ones that multiply the profile latency by the
        controller's active degrade factor at the crossing's start
        (``sim.now`` for ``oneway_ps``).  With no window active the
        factor is exactly 1.0 and the original integer comes back, so
        traffic outside fault windows is untouched.
        """
        controller = self
        for name in key:
            component = system.nodes.get(name)
            bus = getattr(component, "flexbus", None)
            if bus is None or id(bus) in self._wrapped:
                continue
            self._wrapped.add(id(bus))
            base_cls = type(bus)

            class _DegradedFlexBus(base_cls):  # type: ignore[misc, valid-type]
                def oneway_at(self, t_ps: int) -> int:
                    base = self.profile.phy_oneway_ps
                    factor = controller.link_factor(key, t_ps)
                    return base if factor == 1.0 else int(round(base * factor))

                # A class-level property shadows the plain instance
                # attribute that FlexBus sets.
                @property
                def oneway_ps(self) -> int:
                    return self.oneway_at(self.sim.now)

            _DegradedFlexBus.__name__ = f"{base_cls.__name__}(degraded)"
            bus.__class__ = _DegradedFlexBus

    def apply_supernode(self, supernode, t_ps: int) -> None:
        """Push host availability at ``t_ps`` into a supernode.

        Down hosts then NAK coherent accesses with
        :class:`~repro.core.supernode.HostDownError` — the supernode
        itself stays fault-agnostic.
        """
        for host, events in self._node_downs.items():
            if host in supernode.hosts:
                supernode.set_host_available(
                    host, not any(e.active_at(t_ps) for e in events)
                )

    # ------------------------------------------------------------------
    # Time-windowed queries (matched events only)
    # ------------------------------------------------------------------
    def node_down(self, name: str, t_ps: int) -> bool:
        """Is node ``name`` (host or device) down at ``t_ps``?"""
        return any(
            e.active_at(t_ps) for e in self._node_downs.get(name, ())
        )

    def link_down(self, key: LinkKey, t_ps: int) -> bool:
        """Is the link flapped down at ``t_ps``?"""
        return any(e.active_at(t_ps) for e in self._flaps.get(key, ()))

    def link_factor(self, key: LinkKey, t_ps: int) -> float:
        """Product of the degrade factors active on ``key`` at ``t_ps``."""
        factor = 1.0
        for event in self._degrades.get(key, ()):
            if event.active_at(t_ps):
                factor *= event.factor
        return factor

    def corrupted(self, key: LinkKey, t_ps: int) -> bool:
        """Deterministic draw: was this message corrupted on ``key``?

        One draw per active ``msg_corrupt`` event, consumed in
        deterministic (simulator event) order, so the same seed + plan
        reproduce identical corruption patterns.
        """
        hit = False
        for event in self._corrupts.get(key, ()):
            if event.active_at(t_ps):
                index = self._draws
                self._draws += 1
                if corrupt_draw(self.seed, "--".join(key), index, event.rate):
                    hit = True
        return hit

    def path_down(
        self, nodes: Tuple[str, ...], keys: Tuple[LinkKey, ...], t_ps: int
    ) -> bool:
        """Is any node or link on an op's path faulted at ``t_ps``?"""
        return any(self.node_down(n, t_ps) for n in nodes) or any(
            self.link_down(k, t_ps) for k in keys
        )

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def degraded_time_ps(self, end_ps: Optional[int] = None) -> int:
        """Union length of matched fault windows within ``[0, end_ps)``."""
        end = self.end_ps if end_ps is None else end_ps
        return _merge_windows(
            [(e.at_ps, e.recovers_at_ps) for e in self.matched], end
        )

    def last_recovery_ps(self, end_ps: Optional[int] = None) -> Optional[int]:
        """Latest paired recovery that happened within the run, if any."""
        end = self.end_ps if end_ps is None else end_ps
        times = [
            e.recovers_at_ps
            for e in self.matched
            if e.recovers_at_ps is not None and e.recovers_at_ps <= end
        ]
        return max(times) if times else None

    def settle_time_ps(self, end_ps: Optional[int] = None) -> int:
        """Post-recovery settling: last recovery → first completion after it."""
        recovery = self.last_recovery_ps(end_ps)
        if recovery is None:
            return 0
        after = [t for t in self.stats.completion_times_ps if t >= recovery]
        return (min(after) - recovery) if after else 0

    def availability_series(self) -> Dict[str, float]:
        """``availability`` measurement series (ragged, like ``counts``)."""
        stats = self.stats
        return {
            "attempted": float(stats.attempted),
            "completed": float(stats.completed),
            "dropped": float(stats.dropped),
            "retries": float(stats.retries),
            "corrupted": float(stats.corrupted),
            "rate": stats.availability,
        }

    def recovery_series(self) -> Dict[str, float]:
        """``recovery`` measurement series: degraded time + settling."""
        return {
            "degraded_us": self.degraded_time_ps() / 1e6,
            "settle_us": self.settle_time_ps() / 1e6,
            "matched_events": float(len(self.matched)),
            "unmatched_events": float(len(self.unmatched)),
        }
