"""DDR5 bank timing model.

A closed-page controller: after each access the row is precharged, so
the common case costs tRCD + tCL + burst.  Refresh steals the bank for
tRFC every tREFI, and a bounded arbitration jitter models command-bus
scheduling; together these produce the latency spread visible in the
paper's Fig. 12 whiskers without injecting arbitrary noise.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.config.system import DramParams


@dataclass
class DramAccess:
    """Result of one DRAM access."""

    addr: int
    bank: int
    latency_ps: int
    refresh_collision: bool


class DramBankModel:
    """Per-bank availability tracking with periodic refresh."""

    def __init__(self, params: DramParams, seed: int = 1234) -> None:
        self.params = params
        self._rng = random.Random(seed)
        # The jitter draw is ``randint(-jitter_ps, jitter_ps)`` unrolled:
        # the same rejection loop over ``getrandbits``, so the same
        # values and the same RNG state, without three Python calls.
        self._jitter_span = 2 * params.jitter_ps + 1
        self._jitter_bits = self._jitter_span.bit_length()
        self._bank_free_ps = [0] * params.banks
        self.accesses = 0
        self.refresh_collisions = 0

    def bank_of(self, addr: int) -> int:
        return (addr // self.params.row_bytes) % self.params.banks

    def _refresh_penalty(self, now_ps: int) -> int:
        """Residual tRFC if ``now_ps`` lands inside a refresh window."""
        phase = now_ps % self.params.trefi_ps
        if phase < self.params.trfc_ps:
            return self.params.trfc_ps - phase
        return 0

    def access(self, addr: int, now_ps: int) -> DramAccess:
        """Issue one closed-page access; returns latency including queueing.

        The bank's data burst occupies the channel for ``burst_ps``; the
        access pipeline (tRCD + tCL + burst) determines latency.  Column
        accesses pipeline, so back-to-back requests serialize only on
        the burst, not on the full access latency.
        """
        self.accesses += 1
        bank = self.bank_of(addr)
        start = max(now_ps, self._bank_free_ps[bank])
        refresh = self._refresh_penalty(start)
        if refresh:
            self.refresh_collisions += 1
            start += refresh
        # Bound per call, not kept on self: deepcopy (BuiltSystem.fork)
        # would keep a stored builtin method bound to the original RNG.
        getrandbits = self._rng.getrandbits
        span, bits = self._jitter_span, self._jitter_bits
        draw = getrandbits(bits)
        while draw >= span:
            draw = getrandbits(bits)
        jitter = draw - self.params.jitter_ps
        service = max(self.params.row_hit_ps, self.params.closed_access_ps + jitter)
        finish = start + service
        self._bank_free_ps[bank] = start + self.params.burst_ps
        return DramAccess(
            addr=addr,
            bank=bank,
            latency_ps=finish - now_ps,
            refresh_collision=bool(refresh),
        )

    def median_access_ps(self) -> int:
        """Nominal (jitter-free, conflict-free) access cost."""
        return self.params.closed_access_ps

    def reset(self) -> None:
        self._bank_free_ps = [0] * self.params.banks
        self.accesses = 0
        self.refresh_collisions = 0
