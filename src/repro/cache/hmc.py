"""Host memory cache (HMC): the device-side peer cache.

Every CXL type-1/2 device carries a small HMC (128 KB, 4-way on the
paper's FPGA) that caches host memory and acts as a peer of the core
L1s.  The DCOH drives it; this class provides the functional array plus
the timing hooks (tag/data cycles, service initiation interval) the
calibrated device profiles define.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.cache.array import CacheArray
from repro.cache.block import CacheBlock, MesiState
from repro.cache.mesi import check_transition
from repro.cache.messages import MessageType
from repro.config.system import DeviceProfile
from repro.sim.component import Component
from repro.sim.engine import Simulator


class HostMemoryCache(Component):
    """The device's host-memory cache with calibrated service timing."""

    def __init__(
        self,
        sim: Simulator,
        profile: DeviceProfile,
        name: str = "HMC",
    ) -> None:
        super().__init__(sim, name)
        self.profile = profile
        self.array = CacheArray(profile.hmc_size, profile.hmc_ways, name=name)
        self._next_free_ps = 0
        self.snoops_received = 0

    # ------------------------------------------------------------------
    # Timing helpers used by the DCOH / LSU path
    # ------------------------------------------------------------------
    @property
    def tag_ps(self) -> int:
        return self.profile.cycles_ps(self.profile.hmc_tag_cycles)

    @property
    def data_ps(self) -> int:
        return self.profile.cycles_ps(self.profile.hmc_data_cycles)

    def service_start(self, now_ps: int) -> int:
        """Bandwidth-limiting service slot: one request per service II."""
        free = self._next_free_ps
        start = now_ps if now_ps > free else free
        self._next_free_ps = start + self.profile.hmc_service_ii_ps
        return start

    # ------------------------------------------------------------------
    # Functional array operations
    # ------------------------------------------------------------------
    # The array's shift-and-mask indexing discards line-offset bits, so
    # these helpers pass raw addresses straight through.
    def peek(self, addr: int) -> Optional[CacheBlock]:
        return self.array.peek(addr)

    def fill(
        self, addr: int, state: MesiState = MesiState.EXCLUSIVE
    ) -> Tuple[CacheBlock, Optional[Tuple[int, CacheBlock]]]:
        """Install a line; returns (block, victim) like the array."""
        return self.array.insert(addr, state)

    def mark_modified(self, addr: int) -> None:
        """Silent E->M upgrade (Fig. 7 phase 2)."""
        block = self.array.peek(addr)
        if block is None:
            raise LookupError(f"line {addr:#x} not present in {self.name}")
        block.state = check_transition(block.state, "local_write", MesiState.MODIFIED)

    def invalidate(self, addr: int) -> Optional[CacheBlock]:
        return self.array.invalidate(addr)

    def lock(self, addr: int) -> None:
        """RAO PEs lock the target line during read-modify-write (§V-A.2)."""
        block = self.array.peek(addr)
        if block is None:
            raise LookupError(f"cannot lock absent line {addr:#x}")
        block.locked = True

    def unlock(self, addr: int) -> None:
        block = self.array.peek(addr)
        if block is not None:
            block.locked = False

    # ------------------------------------------------------------------
    # Home-agent-facing side (the DCOH answers snoops with HMC state)
    # ------------------------------------------------------------------
    def snoop(self, snoop_type: MessageType, addr: int) -> MessageType:
        self.snoops_received += 1
        block = self.array.peek(addr)
        if block is None:
            return MessageType.RSP_I
        if block.locked:
            # Atomicity guarantee: a locked line defers the snoop; the
            # home agent retries after the RMW window.  Modeled as the
            # peer keeping the line and reporting it dirty afterwards.
            block.locked = False
        if snoop_type is MessageType.SNP_INV:
            dirty = block.dirty
            check_transition(block.state, "snp_inv", MesiState.INVALID)
            self.array.invalidate(addr)
            return MessageType.RSP_I_FWD_M if dirty else MessageType.RSP_I
        if snoop_type is MessageType.SNP_DATA:
            dirty = block.dirty
            block.state = check_transition(block.state, "snp_data", MesiState.SHARED)
            return MessageType.RSP_S_FWD_S if dirty else MessageType.RSP_I
        raise ValueError(f"unexpected snoop {snoop_type}")
