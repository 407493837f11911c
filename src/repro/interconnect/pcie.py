"""PCIe transaction layer: TLPs, ordering, and the physical link.

Models the properties the paper's analysis leans on:

* payloads are segmented into TLPs of at most ``max_payload`` bytes,
  each carrying header overhead on the wire (this is what caps DMA
  efficiency at large transfers, Fig. 16);
* posted writes are strictly ordered; only one outstanding MMIO write
  (§II-A.1);
* reads are split transactions (request + completion), so a later read
  may pass an earlier write unless the initiator explicitly waits —
  the read-after-write hazard that serializes PCIe RAOs (§V-A.1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.config.system import DmaParams
from repro.sim.component import Component
from repro.sim.engine import Simulator


class TlpType(enum.Enum):
    MEM_READ = "MRd"
    MEM_WRITE = "MWr"          # posted
    COMPLETION = "CplD"
    CONFIG_READ = "CfgRd"
    CONFIG_WRITE = "CfgWr"


@dataclass
class Tlp:
    """One transaction-layer packet."""

    ttype: TlpType
    addr: int
    size: int
    tag: int = 0

    def wire_bytes(self, header_bytes: int) -> int:
        payload = self.size if self.ttype in (TlpType.MEM_WRITE, TlpType.COMPLETION) else 0
        return payload + header_bytes


class PcieLink(Component):
    """A PCIe link shared by every TLP in one direction pair."""

    def __init__(self, sim: Simulator, params: DmaParams, name: str = "pcie") -> None:
        super().__init__(sim, name)
        self.params = params
        self._busy_until_ps = 0
        self._last_posted_write_done_ps = 0
        self.tlps_sent = 0
        self.bytes_on_wire = 0

    def segment(self, addr: int, size: int, ttype: TlpType) -> List[Tlp]:
        """Split a transfer into max-payload-sized TLPs."""
        if size <= 0:
            raise ValueError("transfer size must be positive")
        tlps = []
        offset = 0
        tag = 0
        while offset < size:
            chunk = min(self.params.max_payload, size - offset)
            tlps.append(Tlp(ttype, addr + offset, chunk, tag))
            offset += chunk
            tag += 1
        return tlps

    def _wire_ps(self, tlp: Tlp) -> int:
        wire = tlp.wire_bytes(self.params.tlp_header_bytes)
        self.bytes_on_wire += wire
        return round(wire / self.params.raw_link_gbps * 1_000)

    def transmit(self, tlp: Tlp, on_delivered: Optional[Callable[[], None]] = None) -> int:
        """Serialize one TLP onto the wire; returns delivery time."""
        start = max(self.sim.now, self._busy_until_ps)
        if tlp.ttype is TlpType.MEM_WRITE:
            # Posted writes may not pass earlier posted writes.
            start = max(start, self._last_posted_write_done_ps)
        done = start + self._wire_ps(tlp)
        self._busy_until_ps = done
        if tlp.ttype is TlpType.MEM_WRITE:
            self._last_posted_write_done_ps = done
        self.tlps_sent += 1
        if on_delivered is not None:
            self.schedule(done - self.sim.now, on_delivered)
        return done

    def transfer_wire_ps(self, size: int, ttype: TlpType = TlpType.MEM_WRITE) -> int:
        """Total wire time of a segmented transfer (no queueing)."""
        return sum(self._wire_ps_pure(tlp) for tlp in self.segment(0, size, ttype))

    def _wire_ps_pure(self, tlp: Tlp) -> int:
        wire = tlp.wire_bytes(self.params.tlp_header_bytes)
        return round(wire / self.params.raw_link_gbps * 1_000)


class MmioPath(Component):
    """Uncached CPU access to device BAR space over PCIe.

    Writes are posted but strictly ordered with only one outstanding
    (§II-A.1); reads are blocking round trips.
    """

    def __init__(self, sim: Simulator, params: DmaParams, name: str = "mmio") -> None:
        super().__init__(sim, name)
        self.params = params
        self._write_free_ps = 0
        self.writes = 0
        self.reads = 0

    def write(self, on_done: Optional[Callable[[], None]] = None) -> int:
        """Issue one MMIO write; returns completion time at the device."""
        start = max(self.sim.now, self._write_free_ps)
        done = start + self.params.mmio_write_ps
        # Strict ordering: next write may not begin until this one lands.
        self._write_free_ps = done
        self.writes += 1
        if on_done is not None:
            self.schedule(done - self.sim.now, on_done)
        return done

    def read(self, on_done: Optional[Callable[[], None]] = None) -> int:
        done = self.sim.now + self.params.mmio_read_ps
        self.reads += 1
        if on_done is not None:
            self.schedule(done - self.sim.now, on_done)
        return done
