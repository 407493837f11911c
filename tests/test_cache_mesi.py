"""Tests for MESI transition legality."""

import pytest

from repro.cache.block import MesiState
from repro.cache.mesi import ProtocolError, check_transition

I, S, E, M = (
    MesiState.INVALID,
    MesiState.SHARED,
    MesiState.EXCLUSIVE,
    MesiState.MODIFIED,
)


def test_fill_transitions():
    assert check_transition(I, "fill_s", S) is S
    assert check_transition(I, "fill_e", E) is E


def test_silent_upgrade():
    # Fig. 7 phase 2: E -> M without coherence messages.
    assert check_transition(E, "local_write", M) is M


def test_snoop_invalidate_from_every_valid_state():
    for state in (S, E, M):
        assert check_transition(state, "snp_inv", I) is I


def test_snoop_data_downgrades():
    assert check_transition(E, "snp_data", S) is S
    assert check_transition(M, "snp_data", S) is S


def test_dirty_evict_go_i():
    assert check_transition(M, "go_i", I) is I


def test_illegal_target_rejected():
    with pytest.raises(ProtocolError):
        check_transition(E, "local_write", S)
    with pytest.raises(ProtocolError):
        check_transition(S, "snp_inv", M)


def test_unknown_event_rejected():
    with pytest.raises(ProtocolError):
        check_transition(I, "local_write", M)  # cannot write invalid line
    with pytest.raises(ProtocolError):
        check_transition(M, "fill_s", S)


def test_state_properties():
    assert not I.readable
    assert S.readable and not S.writable
    assert E.writable and not E.dirty
    assert M.writable and M.dirty


def test_flat_table_matches_allowed_transitions():
    from repro.cache.mesi import ALLOWED_TRANSITIONS

    for (current, event), allowed in ALLOWED_TRANSITIONS.items():
        for target in allowed:
            assert check_transition(current, event, target) is target


def test_rebuild_table_honors_removed_transitions():
    from repro.cache.mesi import ALLOWED_TRANSITIONS, rebuild_table

    saved = ALLOWED_TRANSITIONS[(E, "local_write")]
    ALLOWED_TRANSITIONS[(E, "local_write")] = frozenset()
    rebuild_table()
    try:
        with pytest.raises(ProtocolError):
            check_transition(E, "local_write", M)
    finally:
        ALLOWED_TRANSITIONS[(E, "local_write")] = saved
        rebuild_table()
    assert check_transition(E, "local_write", M) is M
