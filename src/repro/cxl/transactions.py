"""CXL.cache transaction records shared between the DCOH and devices."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DcohResult:
    """Outcome of a DCOH read/write, delivered to the completion callback.

    ``hmc_hit``     — the line was serviced entirely in the device HMC.
    ``llc_hit``     — serviced by the host LLC (one PHY round trip).
    ``dirty_victim``— filling the line evicted a dirty HMC victim, which
                      costs a DirtyEvict writeback round (the caller
                      decides whether that sits on its critical path).

    The DCOH builds one value per outcome and delivers it to every
    access with that outcome, so a result is shared and never mutated.
    """

    hmc_hit: bool
    llc_hit: bool
    dirty_victim: bool

    @property
    def mem_hit(self) -> bool:
        return not self.hmc_hit and not self.llc_hit
