"""Shared LLC home agent with an embedded directory.

The LLC is the coherence synchronization point (§II-B): every line's
tag embeds the directory metadata (state, exclusive owner ID, sharer
bit-vector).  Peer caches (core L1s and the device HMC) send D2H
requests here; the home agent snoops peers, talks to the memory
interface, and answers with Data/GO messages — the Fig. 7 ladder.

Timing: a request pays the host ingress queue, the home-agent
initiation interval (which bounds sustained bandwidth), the LLC
lookup, plus a snoop round trip and/or a memory round trip when the
directory demands them.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Callable, Deque, Dict, Optional

from repro.cache.array import CacheArray
from repro.cache.block import NO_SHARERS, CacheBlock, MesiState
from repro.cache.mesi import ProtocolError
from repro.cache.messages import (
    CoherenceMessage,
    MessageType,
    NullProtocolTrace,
    ProtocolTrace,
)
from repro.config.system import HostParams
from repro.mem.address import LINE_MASK, line_base
from repro.mem.interface import MemoryInterface
from repro.sim.component import Component
from repro.sim.engine import Simulator


class LlcOp(enum.Enum):
    RD_SHARED = MessageType.RD_SHARED
    RD_OWN = MessageType.RD_OWN
    DIRTY_EVICT = MessageType.DIRTY_EVICT
    CLEAN_EVICT = MessageType.CLEAN_EVICT
    NC_PUSH = MessageType.NC_PUSH


class SharedLLC(Component):
    """Home agent + shared LLC + directory.

    Protocol tracing is opt-in: the default :class:`NullProtocolTrace`
    records nothing.  Pass ``trace=ProtocolTrace()`` (or assign
    ``llc.trace``) to collect the Fig. 7 message ladder.
    """

    def __init__(
        self,
        sim: Simulator,
        host: HostParams,
        memif: MemoryInterface,
        trace: Optional[ProtocolTrace] = None,
        name: str = "LLC",
        snoop_rt_ps: int = 60_000,
    ) -> None:
        super().__init__(sim, name)
        self.host = host
        self.memif = memif
        self.trace = trace if trace is not None else NullProtocolTrace()
        self.snoop_rt_ps = snoop_rt_ps
        self.array = CacheArray(host.llc_size, host.llc_ways, name=name)
        self._peers: Dict[str, object] = {}
        # Line locks: a busy line's queued requests, as _start arguments;
        # None while the owning request has no waiters.
        self._busy: Dict[int, Optional[Deque[tuple]]] = {}
        self._next_free_ps = 0
        self.requests = 0
        self.snoops_sent = 0
        self.writebacks = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def register_peer(self, peer_id: str, peer: object) -> None:
        """Register a peer cache controller (must expose ``snoop``)."""
        if peer_id in self._peers:
            raise ValueError(f"peer {peer_id!r} already registered")
        self._peers[peer_id] = peer

    # ------------------------------------------------------------------
    # Test fixtures mirroring CLDEMOTE / CLFLUSH preconditioning (§VI-A)
    # ------------------------------------------------------------------
    def demote(self, addr: int) -> None:
        """CLDEMOTE: place a clean copy of the line in the LLC."""
        self.array.insert(line_base(addr), MesiState.EXCLUSIVE)

    def flush(self, addr: int) -> None:
        """CLFLUSH: drop the line from the LLC entirely (now memory-only)."""
        self.array.invalidate(line_base(addr))

    def holds(self, addr: int) -> bool:
        return self.array.peek(line_base(addr)) is not None

    def directory_entry(self, addr: int) -> Optional[CacheBlock]:
        return self.array.peek(line_base(addr))

    # ------------------------------------------------------------------
    # Request entry point
    # ------------------------------------------------------------------
    def request(
        self,
        requester: str,
        op: LlcOp,
        addr: int,
        on_done: Callable[[], None],
    ) -> None:
        """Issue a D2H request on behalf of ``requester``.

        ``on_done`` fires (as a simulator event) when the GO message
        lands back at the requester-facing boundary of the home agent.
        Racing requests to the same line serialize on a line lock.
        """
        addr &= LINE_MASK
        busy = self._busy
        if addr not in busy:
            busy[addr] = None
            self._start(requester, op, addr, on_done)
            return
        waiters = busy[addr]
        if waiters is None:
            waiters = busy[addr] = deque()
        waiters.append((requester, op, addr, on_done))

    def _start(self, requester: str, op: LlcOp, addr: int, on_done: Callable[[], None]) -> None:
        self.requests += 1
        if self.trace.enabled:
            self._record(MessageType(op.value), addr, requester, self.name, self.sim.now)
        # Ingress queue, then wait for the home agent to be free.
        self.sim.schedule_after(
            self.host.home_ingress_ps, self._arbitrate, (requester, op, addr, on_done)
        )

    def _arbitrate(self, requester: str, op: LlcOp, addr: int, on_done: Callable[[], None]) -> None:
        now = self.sim.now
        host = self.host
        start = now if now > self._next_free_ps else self._next_free_ps
        hit = self.array.peek(addr) is not None
        self._next_free_ps = start + (host.host_path_ii_ps if hit else host.mem_path_ii_ps)
        # The op's handler fires when the LLC lookup completes.
        if op is LlcOp.RD_SHARED or op is LlcOp.RD_OWN:
            handler, args = self._read, (requester, addr, op is LlcOp.RD_OWN, on_done)
        elif op is LlcOp.DIRTY_EVICT:
            handler, args = self._dirty_evict, (requester, addr, on_done)
        elif op is LlcOp.CLEAN_EVICT:
            handler, args = self._clean_evict, (requester, addr, on_done)
        elif op is LlcOp.NC_PUSH:
            handler, args = self._nc_push, (requester, addr, on_done)
        else:  # pragma: no cover - enum is closed
            raise ProtocolError(f"unknown op {op}")
        self.sim.schedule_after(start + host.llc_access_ps - now, handler, args)

    # ------------------------------------------------------------------
    # Read paths
    # ------------------------------------------------------------------
    def _read(self, requester: str, addr: int, exclusive: bool, on_done: Callable[[], None]) -> None:
        # The one counted probe per read request (stats contract: the
        # timing probe in _arbitrate peeks, and the fill that follows a
        # miss in _read_from_memory never re-counts).  touch=False keeps
        # LLC replacement driven purely by fill order, as before.
        block = self.array.lookup(addr, touch=False)
        if block is None:
            self._read_from_memory(requester, addr, exclusive, on_done)
            return
        extra = 0
        snoop_type = MessageType.SNP_INV if exclusive else MessageType.SNP_DATA
        owner = block.owner
        if owner is not None and owner != requester:
            extra += self._snoop(owner, snoop_type, addr, block)
        if exclusive:
            for sharer in sorted(block.sharers):
                if sharer != requester:
                    extra += 0  # sharer snoops overlap with the owner snoop
                    self._snoop(sharer, MessageType.SNP_INV, addr, block, count_only=True)
            block.sharers = NO_SHARERS
            block.owner = requester
        else:
            sharers = block.sharers
            if block.owner is not None and block.owner != requester:
                sharers = sharers | {block.owner}
                block.owner = None
            if requester not in sharers:
                sharers = sharers | {requester}
            block.sharers = sharers
        go = MessageType.GO_E if exclusive else MessageType.GO_S
        self._complete(requester, addr, go, extra, on_done)

    def _read_from_memory(
        self, requester: str, addr: int, exclusive: bool, on_done: Callable[[], None]
    ) -> None:
        if self.trace.enabled:
            self._record(MessageType.MEM_RD, addr, self.name, "memory", self.sim.now)
        mem_ps = self.memif.access_ps(addr, self.sim.now)
        block, victim = self.array.insert(addr, MesiState.EXCLUSIVE)
        if victim is not None:
            self._back_invalidate(*victim)
        if exclusive:
            block.owner = requester
            block.sharers = NO_SHARERS
        else:
            block.owner = None
            block.sharers = frozenset((requester,))
        go = MessageType.GO_E if exclusive else MessageType.GO_S
        self._complete(requester, addr, go, mem_ps, on_done)

    def _snoop(
        self,
        peer_id: str,
        snoop_type: MessageType,
        addr: int,
        block: CacheBlock,
        count_only: bool = False,
    ) -> int:
        """Snoop ``peer_id``; returns the latency added to the request."""
        peer = self._peers.get(peer_id)
        self.snoops_sent += 1
        traced = self.trace.enabled
        if traced:
            self._record(snoop_type, addr, self.name, peer_id, self.sim.now)
        if peer is None:
            raise ProtocolError(f"directory names unknown peer {peer_id!r}")
        response = peer.snoop(snoop_type, addr)
        if traced:
            self._record(response, addr, peer_id, self.name, self.sim.now + self.snoop_rt_ps)
        if response in (MessageType.RSP_I_FWD_M, MessageType.RSP_S_FWD_S):
            # Dirty data forwarded: home agent writes it back to memory
            # (Fig. 7 phase 1 writes back CoreX-L1's M copy).
            self.writebacks += 1
            if traced:
                self._record(MessageType.MEM_WR, addr, self.name, "memory", self.sim.now)
            self.memif.access_ps(addr, self.sim.now + self.snoop_rt_ps)
            block.state = MesiState.EXCLUSIVE
        if count_only:
            return 0
        return self.snoop_rt_ps

    # ------------------------------------------------------------------
    # Evictions from peers
    # ------------------------------------------------------------------
    def _dirty_evict(self, requester: str, addr: int, on_done: Callable[[], None]) -> None:
        block = self.array.peek(addr)
        if block is None or block.owner != requester:
            owner = None if block is None else block.owner
            raise ProtocolError(
                f"DirtyEvict from {requester!r} but directory owner is {owner!r}"
            )
        # GO-WritePull authorizes the writeback; data lands in the LLC,
        # then GO-I invalidates the peer copy.
        if self.trace.enabled:
            self._record(MessageType.GO_WRITE_PULL, addr, self.name, requester, self.sim.now)
            self._record(MessageType.DATA, addr, requester, self.name, self.sim.now)
        block.owner = None
        block.sharers = NO_SHARERS
        block.state = MesiState.MODIFIED
        self._complete(requester, addr, MessageType.GO_I, 0, on_done)

    def _clean_evict(self, requester: str, addr: int, on_done: Callable[[], None]) -> None:
        block = self.array.peek(addr)
        if block is not None:
            if block.owner == requester:
                block.owner = None
            if requester in block.sharers:
                block.sharers = block.sharers - {requester} or NO_SHARERS
        self._complete(requester, addr, MessageType.GO_I, 0, on_done)

    def _nc_push(self, requester: str, addr: int, on_done: Callable[[], None]) -> None:
        """NC-P: push a line straight into the LLC (dirty there)."""
        block, victim = self.array.insert(addr, MesiState.MODIFIED)
        block.owner = None
        block.sharers = NO_SHARERS
        if victim is not None:
            self._back_invalidate(*victim)
        self._complete(requester, addr, MessageType.GO_I, 0, on_done)

    def _back_invalidate(self, victim_addr: int, victim: CacheBlock) -> None:
        """Handle an LLC replacement: invalidate peers, write back dirty data."""
        for peer_id in sorted(victim.sharers | ({victim.owner} if victim.owner else set())):
            peer = self._peers.get(peer_id)
            if peer is not None:
                if self.trace.enabled:
                    self._record(MessageType.SNP_INV, victim_addr, self.name, peer_id, self.sim.now)
                peer.snoop(MessageType.SNP_INV, victim_addr)
        if victim.dirty:
            self.writebacks += 1
            if self.trace.enabled:
                self._record(MessageType.MEM_WR, victim_addr, self.name, "memory", self.sim.now)
            self.memif.access_ps(victim_addr, self.sim.now)

    # ------------------------------------------------------------------
    # Completion plumbing
    # ------------------------------------------------------------------
    def _complete(
        self,
        requester: str,
        addr: int,
        go: MessageType,
        extra_ps: int,
        on_done: Callable[[], None],
    ) -> None:
        if self.trace.enabled:
            self._record(go, addr, self.name, requester, self.sim.now + extra_ps)
        self.sim.schedule_after(extra_ps, self._finish, (addr, on_done))

    def _finish(self, addr: int, on_done: Callable[[], None]) -> None:
        on_done()
        waiters = self._busy.get(addr)
        if waiters:
            self._start(*waiters.popleft())
        else:
            self._busy.pop(addr, None)

    def _record(self, mtype: MessageType, addr: int, src: str, dst: str, when: int) -> None:
        # Gate on the flag here so a disabled trace never pays for
        # CoherenceMessage construction.
        trace = self.trace
        if trace.enabled:
            trace.record(CoherenceMessage(mtype, addr, src, dst, when))
