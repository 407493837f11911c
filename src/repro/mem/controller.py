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
from repro.mem.dram import DramBankModel


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
        # ``access`` applies ``interleaver.map`` inline with these.
        self._granule = self.interleaver.granule
        self._channel_count = channels
        self.channels: List[DramBankModel] = [
            DramBankModel(params, seed=seed + i) for i in range(channels)
        ]
        self.ii_ps = ii_ps
        self._next_free_ps = 0
        self.requests = 0

    def access(self, addr: int, now_ps: int) -> int:
        """One read/write of the line containing ``addr``; returns its
        latency in ps from ``now_ps``, the controller wait included."""
        self.requests += 1
        # The controller initiation interval delays the service start.
        free = self._next_free_ps
        start = now_ps if now_ps > free else free
        self._next_free_ps = start + self.ii_ps
        granule_index, offset = divmod(addr, self._granule)
        count = self._channel_count
        local = (granule_index // count) * self._granule + offset
        return self.channels[granule_index % count].access(local, start) + start - now_ps

    def reset(self) -> None:
        for channel in self.channels:
            channel.reset()
        self._next_free_ps = 0
        self.requests = 0
