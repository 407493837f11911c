"""Common NIC infrastructure: the run result and the host value store.

Both RAO designs in Fig. 9 apply their atomics to one functional view
of host memory and count the responses they send.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.sim.component import Component
from repro.sim.engine import Simulator


@dataclass
class RaoRunResult:
    """Outcome of one RAO stream run on either NIC design."""

    ops: int
    elapsed_ps: int
    reads_issued: int
    writes_issued: int

    @property
    def throughput_mops(self) -> float:
        if self.elapsed_ps <= 0:
            raise ValueError("empty run")
        return self.ops / (self.elapsed_ps / 1e6)  # ops per microsecond


class HostValues:
    """Functional view of host memory for correctness checking.

    Timing flows through the cache/DMA models; values flow through
    here, so tests can assert that offloaded atomics produce exactly
    the same results a CPU would.
    """

    def __init__(self) -> None:
        self._values: Dict[int, int] = {}

    def read(self, addr: int) -> int:
        return self._values.get(addr, 0)

    def write(self, addr: int, value: int) -> None:
        self._values[addr] = value

    def snapshot(self) -> Dict[int, int]:
        return dict(self._values)


class NicBase(Component):
    """Shared NIC plumbing: the host value store and a response count."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        values: Optional[HostValues] = None,
    ) -> None:
        super().__init__(sim, name)
        self.values = values if values is not None else HostValues()
        self.responses_sent = 0
