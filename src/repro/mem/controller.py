"""Memory controller: channel interleaving plus bank timing.

The controller fronts one or more DRAM channels, routes each line to a
channel via the interleaver and asks the bank model for the access
latency.  It also enforces the calibrated LLC-miss initiation interval,
which bounds sustained memory bandwidth.
"""

from __future__ import annotations

from typing import List

from repro.config.system import DramParams
from repro.mem.address import Interleaver
from repro.mem.dram import DramAccess, DramBankModel


class MemoryController:
    """Multi-channel DDR controller with occupancy tracking."""

    def __init__(
        self,
        params: DramParams,
        channels: int = 2,
        ii_ps: int = 0,
        seed: int = 1234,
    ) -> None:
        self.params = params
        self.interleaver = Interleaver(channels)
        self.channels: List[DramBankModel] = [
            DramBankModel(params, seed=seed + i) for i in range(channels)
        ]
        self.ii_ps = ii_ps
        self._next_free_ps = 0
        self.requests = 0

    def service_start(self, now_ps: int) -> int:
        """Apply the controller initiation interval; returns service start."""
        start = max(now_ps, self._next_free_ps)
        self._next_free_ps = start + self.ii_ps
        return start

    def access(self, addr: int, now_ps: int) -> DramAccess:
        """One read/write of the line containing ``addr``."""
        self.requests += 1
        start = self.service_start(now_ps)
        channel, local = self.interleaver.map(addr)
        result = self.channels[channel].access(local, start)
        # Report the full address, and latency relative to the caller's
        # clock, including any wait for the controller to free up.
        result.addr = addr
        result.latency_ps += start - now_ps
        return result

    def reset(self) -> None:
        for channel in self.channels:
            channel.reset()
        self._next_free_ps = 0
        self.requests = 0
