"""MESI transition legality.

The controllers drive the state machine; this module is the referee.
Every state change in a peer cache goes through :func:`check_transition`
so a protocol bug fails loudly instead of silently corrupting state.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Tuple

from repro.cache.block import MesiState

I = MesiState.INVALID
S = MesiState.SHARED
E = MesiState.EXCLUSIVE
M = MesiState.MODIFIED


class ProtocolError(RuntimeError):
    """An illegal MESI transition or directory inconsistency."""


# (current, event) -> allowed next states.
# Events: local_read / local_write / fill_s / fill_e / snp_inv / snp_data
# / evict / go_i.
ALLOWED_TRANSITIONS: Dict[Tuple[MesiState, str], FrozenSet[MesiState]] = {
    (I, "fill_s"): frozenset({S}),
    (I, "fill_e"): frozenset({E}),
    (S, "local_read"): frozenset({S}),
    (S, "upgrade"): frozenset({M}),
    (S, "snp_inv"): frozenset({I}),
    # A shared copy answering a data snoop keeps its clean S line (the
    # home agent already has the data).  Reached when concurrent devices
    # share a line: an owner's directory entry is written at the home
    # agent before its exclusive fill crosses the flexbus back, so a
    # same-window read from another device can snoop the stale S copy.
    (S, "snp_data"): frozenset({S}),
    (S, "evict"): frozenset({I}),
    (E, "local_read"): frozenset({E}),
    (E, "local_write"): frozenset({M}),  # silent upgrade (Fig. 7 phase 2)
    (E, "snp_inv"): frozenset({I}),
    (E, "snp_data"): frozenset({S}),
    (E, "evict"): frozenset({I}),
    (M, "local_read"): frozenset({M}),
    (M, "local_write"): frozenset({M}),
    (M, "snp_inv"): frozenset({I}),
    (M, "snp_data"): frozenset({S}),
    (M, "evict"): frozenset({I}),   # via DirtyEvict + GO-WritePull
    (M, "go_i"): frozenset({I}),
}


# Flattened legality table: membership means the transition is legal.
# A single set probe replaces the two-stage get + frozenset membership
# test on the hot path.  This is a snapshot of ALLOWED_TRANSITIONS;
# code that mutates the public dict (tests, protocol experiments) must
# call rebuild_table() afterwards or restrictions will not be enforced.
def _flatten() -> FrozenSet[Tuple[MesiState, str, MesiState]]:
    return frozenset(
        (current, event, target)
        for (current, event), allowed in ALLOWED_TRANSITIONS.items()
        for target in allowed
    )


_LEGAL = _flatten()


def rebuild_table() -> None:
    """Re-snapshot ALLOWED_TRANSITIONS after mutating it."""
    global _LEGAL
    _LEGAL = _flatten()


def check_transition(current: MesiState, event: str, target: MesiState) -> MesiState:
    """Validate ``current --event--> target``; returns ``target``."""
    if (current, event, target) in _LEGAL:
        return target
    # Cold path: consult the public table directly so transitions added
    # to ALLOWED_TRANSITIONS after import are still honored.
    allowed = ALLOWED_TRANSITIONS.get((current, event))
    if allowed is None:
        raise ProtocolError(f"no transition for event {event!r} in state {current.value}")
    if target in allowed:
        return target
    raise ProtocolError(
        f"illegal transition {current.value} --{event}--> {target.value};"
        f" allowed: {sorted(s.value for s in allowed)}"
    )
