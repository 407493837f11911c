"""WorkloadDriver: issue any workload through any built system.

The driver closes the loop between the two declarative layers — a
:class:`~repro.workloads.base.Workload` (traffic) and a
:class:`~repro.system.topology.Topology` (shape).  It builds the
topology through the :class:`~repro.system.builder.SystemBuilder` and
dispatches the op stream by what the built system exposes:

* **LSU mode** — topologies with ``lsu`` nodes (microbench, fan-outs,
  anything JSON-loaded with a load/store unit): each stream becomes a
  serialized issue chain on its round-robin LSU, ops flow through the
  DCOH/HMC/LLC path under the discrete-event core, and the measurement
  reports per-stream latency medians and bandwidth.
* **Supernode mode** — topologies with a ``supernode.fabric`` node:
  streams map round-robin onto the per-host systems built by
  ``make_supernode_host``, reads/writes become shared/exclusive
  coherent accesses through the two-level coherence domain, and the
  measurement reports per-host fabric traffic and filter rates.

Measurements are deterministic: the same workload + seed + topology +
config produce a bit-identical :class:`WorkloadMeasurement`, which is
what makes trace record → replay reproduce a run exactly.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

import numpy as np

from repro.config.system import SystemConfig
from repro.devices.lsu import LsuChain
from repro.system import SystemBuilder, Topology, resolve_topology
from repro.workloads.base import Workload, resolve_workload
from repro.workloads.vectorized import KIND_WRITE, OpBatch

#: Streams rebase into the host map at this address — one shared base
#: (not per-stream), so ops that alias in workload space alias in the
#: system too (producer/consumer sharing relies on this).
WINDOW_BASE = 0x20_0000

#: Supernode coherent accesses are synchronous (no simulator clock), so
#: fault windows are evaluated against a virtual clock: think time plus
#: paid fabric latency plus this per-access issue pacing, which keeps
#: the clock advancing even through local-hit streaks.
SUPERNODE_ISSUE_GAP_PS = 50_000


class WorkloadDriverError(ValueError):
    """The target system exposes nothing the driver can issue through."""


@dataclass
class WorkloadMeasurement:
    """Deterministic outcome of driving one workload through one system."""

    workload: str
    topology: str
    mode: str  # "lsu" | "supernode"
    seed: int
    ops: int
    reads: int
    writes: int
    series: Dict[str, Dict[str, float]] = field(default_factory=dict)
    fault: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON form; equality of two dicts is measurement parity."""
        return {
            "workload": self.workload,
            "topology": self.topology,
            "mode": self.mode,
            "seed": self.seed,
            "ops": self.ops,
            "reads": self.reads,
            "writes": self.writes,
            "series": {k: dict(v) for k, v in self.series.items()},
            "fault": self.fault,
        }

    def render(self) -> str:
        """Human-readable table used by ``repro workload replay``."""
        from repro.harness.tables import render_series

        under = f" under fault plan {self.fault}" if self.fault else ""
        title = (
            f"workload {self.workload} on {self.topology}{under} "
            f"({self.mode} mode, "
            f"seed {self.seed}): {self.ops} ops "
            f"({self.reads} reads / {self.writes} writes)"
        )
        return render_series(
            "host" if self.mode == "supernode" else "stream",
            self.series,
            title=title,
            fmt="{:.3f}",
        )


class WorkloadDriver:
    """Drive workloads through :class:`SystemBuilder`-constructed systems."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config

    def run(
        self,
        workload: Union[str, Workload],
        topology: Union[str, Topology, Dict[str, object]] = "microbench",
        seed: int = 1234,
        streams: Optional[int] = None,
        fault: Union[str, Dict[str, object], None] = None,
        fault_mode: str = "strict",
        fault_retries: int = 3,
        fault_backoff_ps: int = 500_000,
    ) -> WorkloadMeasurement:
        """Expand ``workload`` under ``seed`` and issue it through ``topology``.

        ``streams`` re-stripes a *single-stream* workload round-robin
        across that many issue chains (so e.g. ``zipf`` can load every
        LSU of a fan-out); workloads that already declare multiple
        streams (producer/consumer sharing) keep their own mapping.

        ``fault`` (a :class:`~repro.faults.plan.FaultPlan` reference)
        installs a failure timeline against the built system before
        driving.  ``fault_mode`` selects what an op hitting an active
        fault does: ``"strict"`` (default) fails loud —
        :class:`~repro.faults.controller.FaultActiveError` /
        :class:`~repro.core.supernode.HostDownError` — while
        ``"degraded"`` opts into bounded retry-with-backoff
        (``fault_retries`` retries, ``fault_backoff_ps`` initial
        backoff) followed by count-and-drop, and the measurement grows
        ``availability``/``recovery``/``lat_p99_ns`` series.  With
        ``fault=None`` this method is byte-for-byte the historical
        no-fault path.
        """
        resolved_workload = resolve_workload(workload)
        batch = resolved_workload.batch(seed)
        if streams is not None and streams > 1 and not batch.streams.any():
            batch = batch.restripe(streams)
        resolved_topology = resolve_topology(topology)
        system = SystemBuilder(self.config).build(resolved_topology)
        controller = None
        if fault is not None:
            from repro.faults import (
                FaultController,
                RetryPolicy,
                resolve_fault_plan,
            )

            plan = resolve_fault_plan(fault)
            controller = FaultController(
                plan,
                seed=seed,
                mode=fault_mode,
                retry=RetryPolicy(fault_retries, fault_backoff_ps),
            ).install(system)
        if resolved_topology.by_kind("supernode.fabric"):
            series = self._drive_supernode(
                system, resolved_topology, batch, controller
            )
            mode = "supernode"
        elif resolved_topology.by_kind("lsu"):
            series = self._drive_lsus(
                system, resolved_topology, batch, controller
            )
            mode = "lsu"
        else:
            kinds = sorted({spec.kind for spec in resolved_topology.nodes})
            raise WorkloadDriverError(
                f"topology {resolved_topology.name!r} exposes no 'lsu' or "
                f"'supernode.fabric' node to drive a workload through "
                f"(kinds present: {', '.join(kinds)})"
            )
        if controller is not None:
            if mode == "lsu":
                controller.end_ps = system.sim.now
            series["availability"] = controller.availability_series()
            series["recovery"] = controller.recovery_series()
        return WorkloadMeasurement(
            workload=resolved_workload.name,
            topology=resolved_topology.name,
            mode=mode,
            seed=seed,
            ops=len(batch),
            reads=batch.read_count,
            writes=batch.write_count,
            series=series,
            fault=None if controller is None else controller.plan.name,
        )

    # ------------------------------------------------------------------
    # LSU mode
    # ------------------------------------------------------------------
    def _drive_lsus(
        self, system, topology: Topology, batch: OpBatch, controller=None,
    ) -> Dict[str, Dict[str, float]]:
        lsu_specs = topology.by_kind("lsu")
        lsus = [system.node(spec.name) for spec in lsu_specs]
        # Per-stream rows in stream order; the stable sort keeps each
        # stream's ops in batch order.
        order = np.argsort(batch.streams, kind="stable")
        streams, starts = np.unique(batch.streams[order], return_index=True)
        writes = batch.kinds == KIND_WRITE
        addrs = batch.addrs + WINDOW_BASE
        chains: Dict[int, LsuChain] = {}
        for stream, rows in zip(streams.tolist(), np.split(order, starts[1:])):
            index = stream % len(lsus)
            columns = (
                addrs[rows].tolist(),
                writes[rows].tolist(),
                batch.sizes[rows].tolist(),
                batch.delays[rows].tolist(),
            )
            if controller is None:
                chain = LsuChain(lsus[index], *columns)
            else:
                chain = _FaultedLsuChain(
                    lsus[index],
                    *columns,
                    controller,
                    self._fault_binding(topology, lsu_specs[index]),
                )
            chains[stream] = chain
            chain.begin()
        system.sim.run()

        series: Dict[str, Dict[str, float]] = {
            "ops": {},
            "lat_median_ns": {},
            "bandwidth_gbps": {},
        }
        all_latencies: List[int] = []
        total_bytes = 0
        first = None
        last = 0
        for stream, chain in sorted(chains.items()):
            key = f"s{stream}"
            latencies = chain.latencies
            series["ops"][key] = float(len(latencies))
            series["lat_median_ns"][key] = (
                statistics.median(latencies) / 1_000 if latencies else 0.0
            )
            series["bandwidth_gbps"][key] = chain.bandwidth_gbps
            all_latencies.extend(latencies)
            total_bytes += chain.bytes
            if latencies:
                first = (
                    chain.first_issue_ps
                    if first is None
                    else min(first, chain.first_issue_ps)
                )
                last = max(last, chain.last_done_ps)
        span = (last - first) if first is not None else 0
        series["ops"]["all"] = float(len(all_latencies))
        series["lat_median_ns"]["all"] = (
            statistics.median(all_latencies) / 1_000 if all_latencies else 0.0
        )
        series["bandwidth_gbps"]["all"] = (
            total_bytes / span * 1_000 if span > 0 else 0.0
        )
        if controller is not None:
            # Tail latency is what fault plans exist to move; nearest-rank
            # p99 over completed ops, per stream and pooled.
            series["lat_p99_ns"] = {}
            for stream, chain in sorted(chains.items()):
                series["lat_p99_ns"][f"s{stream}"] = self._p99_ns(chain.latencies)
            series["lat_p99_ns"]["all"] = self._p99_ns(all_latencies)
        return series

    @staticmethod
    def _p99_ns(latencies: List[int]) -> float:
        """Nearest-rank 99th percentile, in nanoseconds (0.0 when empty)."""
        if not latencies:
            return 0.0
        ranked = sorted(latencies)
        rank = max(0, -(-99 * len(ranked) // 100) - 1)
        return ranked[rank] / 1_000

    @staticmethod
    def _fault_binding(topology: Topology, lsu_spec):
        """The nodes and links whose faults block one LSU's issue path.

        An LSU op traverses its d2h link, its device, and the device's
        uplink(s) to the host — a ``device_drop`` on the device, a
        ``host_down`` on the host node, or a flap on either link all
        stall this chain.
        """
        device = lsu_spec.params.get("device")
        if device is None:
            for link in topology.links_of(lsu_spec.name):
                other = link.other(lsu_spec.name)
                if topology.node(other).kind.startswith("cxl."):
                    device = other
                    break
        nodes = {lsu_spec.name}
        keys = {
            tuple(sorted((link.a, link.b)))
            for link in topology.links_of(lsu_spec.name)
        }
        if device is not None:
            nodes.add(device)
            for link in topology.links_of(device):
                keys.add(tuple(sorted((link.a, link.b))))
                nodes.add(link.other(device))
        return tuple(sorted(nodes)), tuple(sorted(keys))

    # ------------------------------------------------------------------
    # Supernode mode
    # ------------------------------------------------------------------
    @staticmethod
    def _drive_supernode(
        system, topology: Topology, batch: OpBatch, controller=None
    ) -> Dict[str, Dict[str, float]]:
        fabric_name = topology.by_kind("supernode.fabric")[0].name
        supernode = system.node(fabric_name)
        hosts = sorted(supernode.hosts)
        # Stream s issues from hosts[s % len(hosts)]; per-op columns as
        # plain lists: the system address and whether it is exclusive.
        host_index = batch.streams % len(hosts)
        addrs = (batch.addrs + WINDOW_BASE).tolist()
        exclusive = (batch.kinds == KIND_WRITE).tolist()
        # Integer tallies: exact, so the float series match a float sum.
        if controller is None:
            child_of = np.array([supernode._child_of[host] for host in hosts])
            supernode.access_many(child_of[host_index].tolist(), addrs, exclusive)
            # The system is freshly built and every op completed, and the
            # batch adds to each host's remote_latency_ps what it paid.
            counts = np.bincount(host_index, minlength=len(hosts)).tolist()
            accesses = dict(zip(hosts, counts))
            paid_ps = {host: supernode.hosts[host].remote_latency_ps for host in hosts}
        else:
            accesses = dict.fromkeys(hosts, 0)
            paid_ps = dict.fromkeys(hosts, 0)
            host_of = [hosts[i] for i in host_index.tolist()]
            WorkloadDriver._drive_supernode_faulted(
                supernode, fabric_name, controller,
                zip(host_of, addrs, exclusive, batch.delays.tolist()),
                accesses, paid_ps,
            )

        series: Dict[str, Dict[str, float]] = {
            "accesses": {},
            "remote_accesses": {},
            "fabric_latency_us": {},
            "filter_rate": {},
        }
        domain = supernode.domain
        agents = domain.locals
        for host in hosts:
            entry = supernode.hosts[host]
            agent = agents[supernode._child_of[host]]
            series["accesses"][host] = float(accesses[host])
            series["remote_accesses"][host] = float(entry.remote_accesses)
            series["fabric_latency_us"][host] = paid_ps[host] / 1e6
            series["filter_rate"][host] = agent.filter_rate
        series["accesses"]["all"] = float(sum(accesses.values()))
        series["remote_accesses"]["all"] = float(
            sum(supernode.hosts[h].remote_accesses for h in hosts)
        )
        series["fabric_latency_us"]["all"] = sum(paid_ps.values()) / 1e6
        total_local = sum(domain.local_hits)
        total_global = sum(domain.global_requests)
        series["filter_rate"]["all"] = (
            total_local / (total_local + total_global)
            if (total_local + total_global)
            else 0.0
        )
        if controller is not None:
            series["naks"] = {
                host: float(supernode.hosts[host].naks) for host in hosts
            }
            series["naks"]["all"] = float(
                sum(supernode.hosts[h].naks for h in hosts)
            )
        return series

    @staticmethod
    def _drive_supernode_faulted(
        supernode, fabric_name: str, controller, ops, accesses, paid_ps
    ) -> None:
        """Issue coherent ops under a fault plan, on a virtual clock.

        Supernode accesses are synchronous, so fault windows are
        evaluated against an accumulated clock (think time + paid
        fabric latency + a fixed issue gap).  Down hosts NAK via
        :class:`~repro.core.supernode.HostDownError`; flapped links and
        a downed fabric raise
        :class:`~repro.faults.controller.FaultActiveError`; degraded
        mode turns both into bounded retry-with-backoff then drop.
        With an empty plan every op takes the plain path and pays
        exactly the plain latency, so the core series stay
        bit-identical to a no-fault run.  ``ops`` yields
        ``(host, system address, exclusive, delay_ps)`` per op.
        """
        from repro.core.supernode import HostDownError
        from repro.faults.controller import FaultActiveError

        keys = {
            host: tuple(sorted((host, fabric_name))) for host in supernode.hosts
        }
        retry = controller.retry
        stats = controller.stats
        t = 0
        for host, addr, exclusive, delay_ps in ops:
            key = keys[host]
            t += delay_ps + SUPERNODE_ISSUE_GAP_PS
            stats.record_attempt()
            attempt = 0
            redeliver = 0
            while True:
                controller.apply_supernode(supernode, t)
                try:
                    if controller.link_down(key, t) or controller.node_down(
                        fabric_name, t
                    ):
                        raise FaultActiveError(
                            f"path {key[0]}--{key[1]} is down at {t}ps"
                        )
                    latency = supernode.coherent_access(host, addr, exclusive)
                except (HostDownError, FaultActiveError):
                    if not controller.degraded:
                        raise
                    if attempt < retry.max_retries:
                        stats.record_retry()
                        t += retry.delay_ps(attempt)
                        attempt += 1
                        continue
                    stats.record_drop()
                    break
                factor = controller.link_factor(key, t)
                paid = latency if factor == 1.0 else int(round(latency * factor))
                t += paid
                if controller.corrupted(key, t):
                    stats.record_corrupt()
                    if not controller.degraded:
                        raise FaultActiveError(
                            f"message on {key[0]}--{key[1]} corrupted at {t}ps"
                        )
                    if redeliver < retry.max_retries:
                        redeliver += 1
                        stats.record_retry()
                        continue  # retransmit pays another access
                    stats.record_drop()
                    break
                accesses[host] += 1
                paid_ps[host] += paid
                stats.record_completion(t)
                break
        controller.end_ps = t


class _FaultedLsuChain(LsuChain):
    """Fault-aware :class:`~repro.devices.lsu.LsuChain` (serial mode).

    It keeps each op's start (after the think time) and finish (after
    the completion stage) as events of their own: path faults are
    checked at the start, and corruption draws are taken at the finish,
    so they are consumed in simulator event order.  When the op's path
    is faulted: strict mode raises
    :class:`~repro.faults.controller.FaultActiveError` out of the
    simulator; degraded mode retries with bounded backoff and finally
    counts the op as dropped.  Corrupted completions retransmit
    (re-paying the issue/access/complete pipeline) with the same bound.
    With no fault active those two events add no time, so an empty plan
    reproduces a plain run's measurement bit-identically.
    """

    __slots__ = ("controller", "nodes", "keys", "attempt", "redeliver")

    def __init__(self, lsu, addrs, writes, sizes, delays, controller, binding) -> None:
        super().__init__(lsu, addrs, writes, sizes, delays)
        self.controller = controller
        self.nodes, self.keys = binding
        self.attempt = 0
        self.redeliver = 0

    def issue_next(self) -> None:
        # Per-op fault bookkeeping: first-issue time (latency spans
        # every retry/retransmit), down-retry and retransmit budgets.
        self.issued_ps = -1
        self.attempt = 0
        self.redeliver = 0
        index = self.index
        if index < len(self.addrs):
            self.index = index + 1
            self.lsu.schedule(self.delays[index], self.start)

    def start(self) -> None:
        controller = self.controller
        stats = controller.stats
        now = self.sim.now
        if self.issued_ps < 0:
            self.issued_ps = now
            if self.first_issue_ps < 0:
                self.first_issue_ps = now
            stats.record_attempt()
        if controller.path_down(self.nodes, self.keys, now):
            if not controller.degraded:
                from repro.faults.controller import FaultActiveError

                raise FaultActiveError(
                    f"{self._describe()} hit an active fault at {now}ps "
                    f"(path nodes {', '.join(self.nodes)})"
                )
            retry = controller.retry
            if self.attempt < retry.max_retries:
                delay = retry.delay_ps(self.attempt)
                self.attempt += 1
                stats.record_retry()
                self.lsu.schedule(delay, self.start)
                return
            stats.record_drop()
            self.issue_next()
            return
        row = self.index - 1
        access = self.write if self.writes[row] else self.read
        access(self.addrs[row], self.done, self.issue_ps)

    def done(self, _result) -> None:
        self.sim.schedule_after(self.complete_ps, self.finish)

    def finish(self) -> None:
        controller = self.controller
        stats = controller.stats
        now = self.sim.now
        corrupted = False
        for key in self.keys:
            corrupted = controller.corrupted(key, now) or corrupted
        if corrupted:
            stats.record_corrupt()
            if not controller.degraded:
                from repro.faults.controller import FaultActiveError

                raise FaultActiveError(
                    f"{self._describe()} corrupted on the wire at {now}ps"
                )
            if self.redeliver < controller.retry.max_retries:
                self.redeliver += 1
                stats.record_retry()
                self.start()  # retransmit re-pays the whole pipeline
                return
            stats.record_drop()
            self.issue_next()
            return
        stats.record_completion(now)
        self.latencies.append(now - self.issued_ps)
        self.bytes += self.sizes[self.index - 1]
        self.last_done_ps = now
        self.issue_next()

    def _describe(self) -> str:
        row = self.index - 1
        kind = "write" if self.writes[row] else "read"
        return f"{self.lsu.name}: op {kind} @0x{self.addrs[row] - WINDOW_BASE:x}"
