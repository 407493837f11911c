"""Device coherency engine (DCOH).

The DCOH fronts the HMC: device requests check the HMC first and, on a
miss, cross the Flex Bus to the host home agent (the shared LLC) using
the CXL.cache protocol.  All timing comes from the calibrated device
profile; the host side charges its own ingress/LLC/memory costs inside
:class:`repro.cache.llc.SharedLLC`.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.cache.block import MesiState
from repro.cache.hmc import HostMemoryCache
from repro.cache.llc import LlcOp, SharedLLC
from repro.cache.mesi import check_transition
from repro.config.system import DeviceProfile
from repro.cxl.transactions import DcohResult
from repro.interconnect.flexbus import FlexBus, FlexBusChannel
from repro.mem.address import LINE_MASK
from repro.sim.component import Component
from repro.sim.engine import Simulator

# Completion arguments, one tuple per outcome: a DcohResult is frozen,
# so every access with the same outcome delivers the same object.
_HMC_HIT_ARGS = (DcohResult(hmc_hit=True, llc_hit=False, dirty_victim=False),)
# Indexed ``[llc_hit][dirty_victim]``.
_MISS_ARGS = tuple(
    tuple((DcohResult(False, llc_hit, dirty_victim),) for dirty_victim in (False, True))
    for llc_hit in (False, True)
)


class Dcoh(Component):
    """Device coherency engine driving the HMC and the CXL.cache link."""

    def __init__(
        self,
        sim: Simulator,
        profile: DeviceProfile,
        hmc: HostMemoryCache,
        flexbus: FlexBus,
        llc: SharedLLC,
        name: str = "DCOH",
    ) -> None:
        super().__init__(sim, name)
        self.profile = profile
        self.hmc = hmc
        self.flexbus = flexbus
        self.llc = llc
        llc.register_peer(name, hmc)
        # Per-stage costs, worked out once from the frozen profiles.
        cycles_ps = profile.cycles_ps
        self._request_ps = cycles_ps(profile.dcoh_request_cycles)
        self._response_ps = cycles_ps(profile.dcoh_response_cycles)
        self._tag_ps = hmc.tag_ps
        self._data_ps = hmc.data_ps
        self._fill_response_ps = (
            cycles_ps(profile.dcoh_fill_cycles + profile.hmc_fill_cycles)
            + self._response_ps
        )
        self.reads = 0
        self.writes = 0
        self.nc_pushes = 0
        self.evictions_issued = 0

    # ------------------------------------------------------------------
    # D2H coherent read (load or read-for-ownership)
    # ------------------------------------------------------------------
    def read(
        self,
        addr: int,
        on_done: Callable[[DcohResult], None],
        delay_ps: int = 0,
        exclusive: bool = False,
        extra_rt_ps: int = 0,
    ) -> None:
        """Coherently read ``addr``; ``on_done(result)`` fires at completion.

        The request reaches the DCOH ``delay_ps`` (non-negative) from
        now, after the caller's own issue stages (e.g. LSU think and
        issue time), so the tag-lookup event covers them and the DCOH
        request stage.  ``extra_rt_ps`` adds NUMA routing distance
        (round trip) for targets on distant nodes.
        """
        self.reads += 1
        self.sim.schedule_after(
            delay_ps + self._request_ps,
            self._tag_lookup,
            (addr & LINE_MASK, on_done, exclusive, extra_rt_ps),
        )

    def _tag_lookup(
        self,
        addr: int,
        on_done: Callable[[DcohResult], None],
        exclusive: bool,
        extra_rt_ps: int,
    ) -> None:
        hmc = self.hmc
        now = self.sim.now
        tag_done = hmc.service_start(now) + self._tag_ps
        block = hmc.array.lookup(addr)
        if block is not None and (not exclusive or block.state.writable):
            self.sim.schedule_after(
                tag_done + self._data_ps + self._response_ps - now, on_done, _HMC_HIT_ARGS
            )
            return
        # Miss (or ownership upgrade): cross the Flex Bus to the host
        # home agent once the tag lookup is done, at the link latency
        # of that moment.
        outbound_extra = extra_rt_ps // 2
        miss = _HostMiss(self, addr, on_done, exclusive, extra_rt_ps - outbound_extra)
        flexbus = self.flexbus
        flexbus.traffic[FlexBusChannel.CACHE] += 1
        self.sim.schedule_after(
            tag_done - now + flexbus.oneway_at(tag_done) + outbound_extra,
            miss.at_host,
        )

    # ------------------------------------------------------------------
    # D2H coherent write: read-for-ownership then silent M upgrade
    # ------------------------------------------------------------------
    def write(
        self,
        addr: int,
        on_done: Callable[[DcohResult], None],
        delay_ps: int = 0,
        extra_rt_ps: int = 0,
    ) -> None:
        """Read ``addr`` for ownership, then upgrade it to M; as :meth:`read`."""
        self.writes += 1
        addr &= LINE_MASK

        def owned(result: DcohResult) -> None:
            # Between the RFO fill and this upgrade, a concurrent miss
            # from another stream can victimize the just-filled line —
            # the array doesn't pin in-flight lines the way MSHRs do.
            # Ownership was still granted, so re-install straight in M.
            array = self.hmc.array
            block = array.peek(addr)
            if block is None:
                _block, victim = array.insert(addr, MesiState.MODIFIED)
                if victim is not None and victim[1].dirty:
                    self.evictions_issued += 1
                    self.llc.request(self.name, LlcOp.DIRTY_EVICT, victim[0], _ignore)
            else:
                # Silent E->M upgrade (Fig. 7 phase 2).
                block.state = check_transition(
                    block.state, "local_write", MesiState.MODIFIED
                )
            on_done(result)

        self.read(addr, owned, delay_ps, True, extra_rt_ps)

    # ------------------------------------------------------------------
    # NC-P: push a line into the host LLC, invalidating the HMC copy
    # ------------------------------------------------------------------
    def nc_push(self, addr: int, on_done: Optional[Callable[[], None]] = None) -> None:
        self.nc_pushes += 1
        addr &= LINE_MASK
        self.hmc.invalidate(addr)

        def at_host() -> None:
            self.llc.request(self.name, LlcOp.NC_PUSH, addr, pushed)

        def pushed() -> None:
            if on_done is not None:
                on_done()

        self._cross_to_host(at_host)

    # ------------------------------------------------------------------
    # Explicit dirty eviction (Fig. 7 phase 3)
    # ------------------------------------------------------------------
    def evict(self, addr: int, on_done: Callable[[], None]) -> None:
        addr &= LINE_MASK
        block = self.hmc.peek(addr)
        if block is None:
            self.schedule(0, on_done)
            return
        op = LlcOp.DIRTY_EVICT if block.dirty else LlcOp.CLEAN_EVICT
        self.evictions_issued += 1

        def at_host() -> None:
            self.llc.request(self.name, op, addr, host_done)

        def host_done() -> None:
            self.schedule(self.flexbus.oneway_ps, back)

        def back() -> None:
            self.hmc.invalidate(addr)
            on_done()

        self._cross_to_host(at_host)

    def _cross_to_host(self, at_host: Callable[[], None]) -> None:
        """Request stage, then the Flex Bus to the host; ``at_host`` on arrival.

        The crossing starts when the request stage ends, so the link is
        priced at that moment, not now.
        """
        flexbus = self.flexbus
        flexbus.traffic[FlexBusChannel.CACHE] += 1
        crossing = self.sim.now + self._request_ps
        self.schedule(self._request_ps + flexbus.oneway_at(crossing), at_host)


def _ignore() -> None:
    """Completion of an off-critical-path writeback round."""


class _HostMiss:
    """One HMC miss in flight: home agent, Flex Bus back, HMC fill.

    ``Dcoh._tag_lookup`` creates it and schedules its arrival at the
    host, which already includes the outbound Flex Bus crossing.  Its
    bound methods are the callbacks of the stages after that, so a miss
    allocates this one record instead of closures.  Each crossing is
    priced at the link latency of the moment it starts (a fault plan
    can make it time-varying).
    """

    __slots__ = (
        "dcoh", "addr", "on_done", "exclusive", "inbound_extra", "llc_hit",
    )

    def __init__(
        self,
        dcoh: Dcoh,
        addr: int,
        on_done: Callable[[DcohResult], None],
        exclusive: bool,
        inbound_extra: int,
    ) -> None:
        self.dcoh = dcoh
        self.addr = addr
        self.on_done = on_done
        self.exclusive = exclusive
        self.inbound_extra = inbound_extra
        self.llc_hit = False

    @property
    def name(self) -> str:
        """The owning DCOH's name, so profilers charge the miss to it."""
        return self.dcoh.name

    def at_host(self) -> None:
        dcoh = self.dcoh
        llc = dcoh.llc
        # ``addr`` is already line-aligned: probe the array directly.
        self.llc_hit = llc.array.peek(self.addr) is not None
        op = LlcOp.RD_OWN if self.exclusive else LlcOp.RD_SHARED
        llc.request(dcoh.name, op, self.addr, self.host_done)

    def host_done(self) -> None:
        dcoh = self.dcoh
        dcoh.sim.schedule_after(
            dcoh.flexbus.oneway_ps + self.inbound_extra, self.back_at_device
        )

    def back_at_device(self) -> None:
        dcoh = self.dcoh
        addr = self.addr
        array = dcoh.hmc.array
        state = MesiState.EXCLUSIVE if self.exclusive else MesiState.SHARED
        held = array.peek(addr)
        if held is not None and held.state.writable:
            # A request that missed before this device's RdOwn filled the
            # line must not demote it: the device still owns it, E or M.
            state = held.state
        _block, victim = array.insert(addr, state)
        dirty_victim = victim is not None and victim[1].dirty
        if dirty_victim:
            dcoh.evictions_issued += 1
            # The writeback round itself runs off the critical path.
            dcoh.llc.request(dcoh.name, LlcOp.DIRTY_EVICT, victim[0], _ignore)
        dcoh.sim.schedule_after(
            dcoh._fill_response_ps, self.on_done, _MISS_ARGS[self.llc_hit][dirty_victim]
        )
