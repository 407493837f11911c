"""Identity hashing of the enum keyed on the miss path.

``MesiState`` sets ``__hash__ = object.__hash__``, so the MESI legality
probe hashes in C instead of through ``Enum.__hash__``.  That holds only
while CPython's ``Enum`` honours a class-level ``__hash__`` and members
stay singletons through pickle and deepcopy, so the CI runs this file on
every interpreter it covers.  A system fork keeps counting on the miss
path too.
"""

import copy
import pickle

import pytest

from repro.cache.block import MesiState
from repro.cache.mesi import check_transition
from repro.config import system_by_name
from repro.system import SystemBuilder, topology_by_name

MEMBERS = list(MesiState)


@pytest.mark.parametrize("member", MEMBERS, ids=str)
def test_member_hashes_by_identity(member):
    assert hash(member) == object.__hash__(member)


@pytest.mark.parametrize("member", MEMBERS, ids=str)
def test_member_survives_pickle_and_deepcopy(member):
    assert pickle.loads(pickle.dumps(member)) is member
    assert copy.deepcopy(member) is member


def test_equality_and_keyed_lookups_unchanged():
    assert MesiState("M") is MesiState.MODIFIED
    assert MesiState.SHARED != MesiState.EXCLUSIVE
    assert {m: m.value for m in MesiState}[MesiState.EXCLUSIVE] == "E"
    upgraded = check_transition(MesiState.EXCLUSIVE, "local_write", MesiState.MODIFIED)
    assert upgraded is MesiState.MODIFIED


def test_forked_fanout_keeps_counting_flexbus_traffic():
    system = SystemBuilder(system_by_name("fpga")).build(topology_by_name("fanout-2"))
    dcoh = system.nodes["dev0"].dcoh
    done = []
    for i in range(4):
        dcoh.read(0x100000 + i * 64, done.append)
    system.sim.run()
    bus = system.nodes["dev0"].flexbus
    assert bus.cache_requests == 4

    fork = system.fork()
    fork_dcoh = fork.nodes["dev0"].dcoh
    for i in range(4, 7):
        fork_dcoh.read(0x100000 + i * 64, done.append)
    fork.sim.run()
    assert fork.nodes["dev0"].flexbus.cache_requests == 7
    assert bus.cache_requests == 4
    assert len(done) == 7
