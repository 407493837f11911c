"""Identity hashing of the enums keyed on the miss path.

``MesiState`` and ``FlexBusChannel`` set ``__hash__ = object.__hash__``,
so ``FlexBus.traffic[channel] += 1`` and the MESI legality probe hash in
C instead of through ``Enum.__hash__``.  That holds only while CPython's
``Enum`` honours a class-level ``__hash__`` and members stay singletons
through pickle, deepcopy and a system fork, so the CI runs this file on
every interpreter it covers.
"""

import copy
import pickle

import pytest

from repro.cache.block import MesiState
from repro.cache.mesi import check_transition
from repro.config import system_by_name
from repro.interconnect.flexbus import FlexBusChannel
from repro.system import SystemBuilder, topology_by_name

MEMBERS = list(MesiState) + list(FlexBusChannel)


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
    traffic = system.nodes["dev0"].flexbus.traffic
    assert traffic[FlexBusChannel.CACHE] == 4

    fork = system.fork()
    fork_dcoh = fork.nodes["dev0"].dcoh
    for i in range(4, 7):
        fork_dcoh.read(0x100000 + i * 64, done.append)
    fork.sim.run()
    fork_traffic = fork.nodes["dev0"].flexbus.traffic
    assert list(fork_traffic) == list(FlexBusChannel)
    assert all(key is member for key, member in zip(fork_traffic, FlexBusChannel))
    assert fork_traffic[FlexBusChannel.CACHE] == 7
    assert traffic[FlexBusChannel.CACHE] == 4
    assert len(done) == 7
