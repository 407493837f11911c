"""DDR5 bank timing model.

A closed-page controller: after each access the row is precharged, so
the common case costs tRCD + tCL + burst.  Refresh steals the bank for
tRFC every tREFI, and a bounded arbitration jitter models command-bus
scheduling; together these produce the latency spread visible in the
paper's Fig. 12 whiskers without injecting arbitrary noise.
"""

from __future__ import annotations

import random

from repro.config.system import DramParams


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
        # Per-access constants, worked out once from the frozen params.
        self._row_bytes = params.row_bytes
        self._banks = params.banks
        self._trefi_ps = params.trefi_ps
        self._trfc_ps = params.trfc_ps
        self._burst_ps = params.burst_ps
        self._row_hit_ps = params.row_hit_ps
        # closed_access_ps + jitter, with the jitter's -jitter_ps offset
        # folded in: a draw in [0, 2 * jitter_ps] is added to it.
        self._service_base_ps = params.closed_access_ps - params.jitter_ps
        self._bank_free_ps = [0] * params.banks
        self.accesses = 0
        self.refresh_collisions = 0

    def bank_of(self, addr: int) -> int:
        return (addr // self._row_bytes) % self._banks

    def access(self, addr: int, now_ps: int) -> int:
        """Issue one closed-page access; returns its latency in ps,
        queueing and any refresh wait included (a wait counts in
        ``refresh_collisions``).

        The bank's data burst occupies the channel for ``burst_ps``; the
        access pipeline (tRCD + tCL + burst) determines latency.  Column
        accesses pipeline, so back-to-back requests serialize only on
        the burst, not on the full access latency.
        """
        self.accesses += 1
        bank = (addr // self._row_bytes) % self._banks
        free = self._bank_free_ps[bank]
        start = now_ps if now_ps > free else free
        # A start inside a refresh window waits out the residual tRFC.
        phase = start % self._trefi_ps
        if phase < self._trfc_ps:
            self.refresh_collisions += 1
            start += self._trfc_ps - phase
        # Bound per call, not kept on self: deepcopy (BuiltSystem.fork)
        # would keep a stored builtin method bound to the original RNG.
        getrandbits = self._rng.getrandbits
        span, bits = self._jitter_span, self._jitter_bits
        draw = getrandbits(bits)
        while draw >= span:
            draw = getrandbits(bits)
        service = self._service_base_ps + draw
        if service < self._row_hit_ps:
            service = self._row_hit_ps
        self._bank_free_ps[bank] = start + self._burst_ps
        return start + service - now_ps

    def reset(self) -> None:
        self._bank_free_ps = [0] * self.params.banks
        self.accesses = 0
        self.refresh_collisions = 0
