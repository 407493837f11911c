"""Hierarchical metrics registry: counters, gauges, histograms, probes.

Components keep maintaining the plain integer counters they always
had (``CacheArray.hits``, ``Simulator.executed``, ...), and a
:class:`MetricsRegistry` *binds* those counters as named instruments —
optionally alongside push-style counters/gauges/histograms owned by the
registry itself.  Periodic simulated-time :meth:`MetricsRegistry.snapshot`
calls turn every instrument into a ``(time_ps, value)`` time series
next to the final :meth:`MetricsRegistry.summary`.

Because observation is pull-based, a system that never attaches a
registry executes exactly the same instructions as before — the
zero-overhead-when-off contract shared with :data:`NULL_METRICS`.
``tests/test_obs.py::test_idle_registry_adds_no_work_to_the_drain``
checks it exactly: a drain with an idle registry bound executes the
same events and makes the same Python-level calls.  Scheduled
snapshots never mutate simulation state, so an instrumented run's
measurement stays bit-identical to an uninstrumented one.

Instrument names are hierarchical dotted paths (``engine.events``,
``llc.array.hits``); :meth:`MetricsRegistry.scoped` returns a view that
prefixes a subtree, which is how per-component registration composes.
Labels distinguish instances sharing a name (``port.sent{dir=rx}``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.sim.stats import Histogram

Labels = Tuple[Tuple[str, str], ...]


class MetricError(ValueError):
    """Conflicting registration (same key, different instrument kind)."""


def metric_key(name: str, labels: Dict[str, Any]) -> str:
    """Canonical ``name{k=v,...}`` key; label order never matters."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Instrument:
    """Base: a named, labelled source of one numeric value."""

    kind = "abstract"
    __slots__ = ("name", "labels", "key")

    def __init__(self, name: str, labels: Dict[str, Any]):
        self.name = name
        self.labels: Labels = tuple(sorted((k, str(v)) for k, v in labels.items()))
        self.key = metric_key(name, labels)

    def read(self) -> float:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.key}={self.read()})"


class CounterMetric(Instrument):
    """Push-style monotonically increasing counter."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self, name: str, labels: Dict[str, Any]):
        super().__init__(name, labels)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def read(self) -> float:
        return self.value


class GaugeMetric(Instrument):
    """Push-style point-in-time value."""

    kind = "gauge"
    __slots__ = ("value",)

    def __init__(self, name: str, labels: Dict[str, Any]):
        super().__init__(name, labels)
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def read(self) -> float:
        return self.value


class ProbeMetric(Instrument):
    """Pull-style gauge bound to a zero-argument callable.

    This is how existing component counters (``array.hits``,
    ``sim.executed``) register without the component paying anything on
    its hot path.
    """

    kind = "probe"
    __slots__ = ("fn",)

    def __init__(self, name: str, labels: Dict[str, Any], fn: Callable[[], float]):
        super().__init__(name, labels)
        self.fn = fn

    def read(self) -> float:
        return float(self.fn())


class HistogramMetric(Instrument):
    """Push-style sample distribution (exact quantiles, PMU-style)."""

    kind = "histogram"
    __slots__ = ("histogram",)

    def __init__(self, name: str, labels: Dict[str, Any]):
        super().__init__(name, labels)
        self.histogram = Histogram(name)

    def observe(self, value: float) -> None:
        self.histogram.add(value)

    def observe_many(self, values: Iterable[float]) -> None:
        self.histogram.extend(values)

    def read(self) -> float:
        """Snapshot value: the sample count (quantiles live in summary)."""
        return float(len(self.histogram))

    def summary(self) -> Dict[str, float]:
        if not len(self.histogram):
            return {"count": 0.0}
        return self.histogram.summary()


class MetricsRegistry:
    """Hierarchical instrument registry with simulated-time snapshots."""

    def __init__(self, name: str = "repro"):
        self.name = name
        self._instruments: Dict[str, Instrument] = {}
        self._series: Dict[str, List[Tuple[int, float]]] = {}
        self.snapshots = 0

    # --------------------------- registration ---------------------------
    def _register(self, instrument: Instrument) -> Instrument:
        existing = self._instruments.get(instrument.key)
        if existing is not None:
            if type(existing) is not type(instrument):
                raise MetricError(
                    f"metric {instrument.key!r} already registered as "
                    f"{existing.kind}, cannot re-register as {instrument.kind}"
                )
            return existing
        self._instruments[instrument.key] = instrument
        return instrument

    def counter(self, name: str, **labels: Any) -> CounterMetric:
        """Get-or-create a counter (idempotent per key)."""
        return self._register(CounterMetric(name, labels))  # type: ignore[return-value]

    def gauge(self, name: str, **labels: Any) -> GaugeMetric:
        return self._register(GaugeMetric(name, labels))  # type: ignore[return-value]

    def histogram(self, name: str, **labels: Any) -> HistogramMetric:
        return self._register(HistogramMetric(name, labels))  # type: ignore[return-value]

    def probe(self, name: str, fn: Callable[[], float], **labels: Any) -> ProbeMetric:
        """Bind an existing counter/attribute as a pull-style gauge."""
        return self._register(ProbeMetric(name, labels, fn))  # type: ignore[return-value]

    def scoped(self, prefix: str) -> "ScopedRegistry":
        """A view registering everything under ``<prefix>.``."""
        return ScopedRegistry(self, prefix)

    # ----------------------------- reading ------------------------------
    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, key: str) -> bool:
        return key in self._instruments

    def get(self, key: str) -> Optional[Instrument]:
        return self._instruments.get(key)

    def instruments(self) -> List[Instrument]:
        return [self._instruments[k] for k in sorted(self._instruments)]

    def snapshot(self, time_ps: int) -> Dict[str, float]:
        """Sample every instrument at simulated time ``time_ps``.

        Appends one ``(time_ps, value)`` point per instrument to the
        registry's time series and returns the sampled values.  Reading
        never mutates the instrumented system.
        """
        self.snapshots += 1
        sampled: Dict[str, float] = {}
        for key in sorted(self._instruments):
            value = self._instruments[key].read()
            sampled[key] = value
            self._series.setdefault(key, []).append((int(time_ps), value))
        return sampled

    def series(self) -> Dict[str, List[Tuple[int, float]]]:
        """Per-metric ``[(time_ps, value), ...]`` across all snapshots."""
        return {k: list(v) for k, v in sorted(self._series.items())}

    def summary(self) -> Dict[str, object]:
        """Final value per instrument (histograms: full quantile dict)."""
        out: Dict[str, object] = {}
        for key in sorted(self._instruments):
            instrument = self._instruments[key]
            if isinstance(instrument, HistogramMetric):
                out[key] = instrument.summary()
            else:
                out[key] = instrument.read()
        return out

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form: summary plus the snapshot time series."""
        return {
            "name": self.name,
            "snapshots": self.snapshots,
            "summary": self.summary(),
            "series": {
                k: [[t, v] for t, v in points]
                for k, points in sorted(self._series.items())
            },
        }

    def render(self, limit: Optional[int] = None) -> str:
        """Human-readable summary table, widest-key aligned."""
        summary = self.summary()
        keys = list(summary)
        if limit is not None:
            keys = keys[:limit]
        if not keys:
            return f"metrics registry {self.name!r}: no instruments"
        width = max(len(k) for k in keys)
        lines = [
            f"metrics registry {self.name!r}: {len(self._instruments)} "
            f"instrument(s), {self.snapshots} snapshot(s)"
        ]
        for key in keys:
            value = summary[key]
            if isinstance(value, dict):
                rendered = " ".join(
                    f"{k}={value[k]:g}" for k in ("count", "median", "p99")
                    if k in value
                )
            else:
                rendered = f"{value:g}"
            lines.append(f"  {key:<{width}}  {rendered}")
        if limit is not None and len(summary) > limit:
            lines.append(f"  ... ({len(summary) - limit} more)")
        return "\n".join(lines)


class ScopedRegistry:
    """Prefix view onto a :class:`MetricsRegistry` (hierarchy helper)."""

    __slots__ = ("_registry", "prefix")

    def __init__(self, registry: MetricsRegistry, prefix: str):
        self._registry = registry
        self.prefix = prefix

    def _name(self, name: str) -> str:
        return f"{self.prefix}.{name}"

    def counter(self, name: str, **labels: Any) -> CounterMetric:
        return self._registry.counter(self._name(name), **labels)

    def gauge(self, name: str, **labels: Any) -> GaugeMetric:
        return self._registry.gauge(self._name(name), **labels)

    def histogram(self, name: str, **labels: Any) -> HistogramMetric:
        return self._registry.histogram(self._name(name), **labels)

    def probe(self, name: str, fn: Callable[[], float], **labels: Any) -> ProbeMetric:
        return self._registry.probe(self._name(name), fn, **labels)

    def scoped(self, prefix: str) -> "ScopedRegistry":
        return ScopedRegistry(self._registry, self._name(prefix))


class NullRegistry:
    """Null-object registry: every instrument it hands out is inert.

    Components that want to hold a metrics handle unconditionally
    default to :data:`NULL_METRICS`; pushing into a null instrument
    costs one no-op method call.
    """

    __slots__ = ()

    class _NullInstrument:
        __slots__ = ()

        def inc(self, amount: float = 1.0) -> None:
            pass

        def set(self, value: float) -> None:
            pass

        def observe(self, value: float) -> None:
            pass

        def observe_many(self, values: Iterable[float]) -> None:
            pass

        def read(self) -> float:
            return 0.0

    _INSTRUMENT = _NullInstrument()

    def counter(self, name: str, **labels: Any):
        return self._INSTRUMENT

    gauge = histogram = counter

    def probe(self, name: str, fn: Callable[[], float], **labels: Any):
        return self._INSTRUMENT

    def scoped(self, prefix: str) -> "NullRegistry":
        return self

    def snapshot(self, time_ps: int) -> Dict[str, float]:
        return {}


#: Shared process-wide null registry instance.
NULL_METRICS = NullRegistry()


#: Integer attributes bound as probes when found on a system node (or
#: one of its :data:`_SUB_OBJECTS` members).  These are the counters the
#: simulator components already maintain on their hot paths.
_COUNTER_ATTRS = (
    "hits",
    "misses",
    "evictions",
    "writebacks",
    "sent",
    "delivered",
    "naks",
    "remote_accesses",
    "local_hits",
    "global_requests",
    "executed",
    "dropped",
)

#: One-level descent into well-known sub-objects of a node.
_SUB_OBJECTS = ("array", "hmc", "dcoh", "pmu", "prefetcher")


def _probe_counters(registry, prefix: str, obj: object) -> int:
    """Register a probe per integer counter attribute found on ``obj``."""
    bound = 0
    for attr in _COUNTER_ATTRS:
        value = getattr(obj, attr, None)
        if isinstance(value, int) and not isinstance(value, bool):
            registry.probe(f"{prefix}.{attr}", lambda o=obj, a=attr: getattr(o, a))
            bound += 1
    return bound


def instrument_system(system, registry: MetricsRegistry) -> int:
    """Bind a built system's existing counters into ``registry``.

    Walks the :class:`~repro.system.builder.BuiltSystem`: the engine
    (events executed/pending/now), the host LLC, every topology node
    (duck-typed counter attributes, one level of well-known
    sub-objects), and supernode per-host fabric counters.  Returns the
    number of instruments bound.  Purely pull-based: nothing on the
    simulation's hot paths changes, which is what keeps instrumented
    runs bit-identical.
    """
    sim = system.sim
    engine = registry.scoped("engine")
    engine.probe("events", lambda: sim.executed)
    engine.probe("pending", lambda: sim.pending)
    engine.probe("now_ps", lambda: sim.now)
    bound = 3
    llc = getattr(system, "llc", None)
    if llc is not None:
        bound += _probe_counters(registry, "llc", llc)
        array = getattr(llc, "array", None)
        if array is not None:
            bound += _probe_counters(registry, "llc.array", array)
    for name, node in sorted(getattr(system, "nodes", {}).items()):
        bound += _probe_counters(registry, name, node)
        for sub_name in _SUB_OBJECTS:
            sub = getattr(node, sub_name, None)
            if sub is not None and not isinstance(sub, (int, float, str)):
                bound += _probe_counters(registry, f"{name}.{sub_name}", sub)
        hosts = getattr(node, "hosts", None)
        if isinstance(hosts, dict):
            for host_name, entry in sorted(hosts.items()):
                bound += _probe_counters(
                    registry, f"{name}.{host_name}", entry
                )
    return bound


class MetricSnapshotter:
    """Periodic simulated-time snapshots driven by the event calendar.

    Schedules itself every ``interval_ps`` and stops as soon as the
    calendar would otherwise be empty (``sim.pending == 0`` at tick
    time), so it never keeps a drained simulation alive.  Snapshot
    callbacks read instruments and nothing else — simulation state is
    untouched.
    """

    def __init__(self, sim, registry: MetricsRegistry, interval_ps: int):
        if interval_ps <= 0:
            raise MetricError(
                f"snapshot interval must be positive, got {interval_ps}"
            )
        self.sim = sim
        self.registry = registry
        self.interval_ps = int(interval_ps)

    def start(self) -> "MetricSnapshotter":
        self.sim.schedule_after(self.interval_ps, self._tick, ())
        return self

    def _tick(self) -> None:
        self.registry.snapshot(self.sim.now)
        if self.sim.pending > 0:
            self.sim.schedule_after(self.interval_ps, self._tick, ())
