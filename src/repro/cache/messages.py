"""Coherence message vocabulary of the CXL.cache sub-protocol (Fig. 7)."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional


class MessageType(enum.Enum):
    # Device/peer -> home agent (D2H requests).
    RD_SHARED = "RdShared"        # read for shared access
    RD_OWN = "RdOwn"              # read for ownership
    RD_CURR = "RdCurr"            # uncached snapshot read
    DIRTY_EVICT = "DirtyEvict"    # writeback request for a dirty line
    CLEAN_EVICT = "CleanEvict"    # notify eviction of a clean line
    NC_PUSH = "NC-P"              # non-cacheable push into host LLC
    # Home agent -> peers (H2D requests: snoops).
    SNP_INV = "SnpInv"
    SNP_DATA = "SnpData"
    # Peer -> home agent (H2D responses).
    RSP_I_FWD_M = "RspIFwdM"      # invalidated; forwarding modified data
    RSP_S_FWD_S = "RspSFwdS"      # downgraded to shared; forwarding data
    RSP_I = "RspI"                # invalidated, no data
    # Home agent -> requester (D2H responses / GO messages).
    DATA = "Data"
    GO_E = "GO-E"
    GO_S = "GO-S"
    GO_I = "GO-I"
    GO_WRITE_PULL = "GO-WritePull"
    # Memory traffic.
    MEM_RD = "MemRd"
    MEM_WR = "MemWr"


@dataclass
class CoherenceMessage:
    """One protocol message, timestamped for trace inspection."""

    mtype: MessageType
    addr: int
    src: str
    dst: str
    time_ps: int = 0

    def __str__(self) -> str:
        return (
            f"{self.time_ps:>10}ps  {self.src:>12} -> {self.dst:<12} "
            f"{self.mtype.value:<12} @{self.addr:#x}"
        )


class ProtocolTrace:
    """Ordered record of coherence messages (the Fig. 7 ladder).

    ``enabled`` gates collection: hot emitters check the flag *before*
    constructing a :class:`CoherenceMessage`, so a disabled trace costs
    a single attribute read per protocol message.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.messages: List[CoherenceMessage] = []
        self.enabled = enabled

    def record(self, msg: CoherenceMessage) -> None:
        if self.enabled:
            self.messages.append(msg)

    def types(self) -> List[MessageType]:
        return [m.mtype for m in self.messages]

    def for_addr(self, addr: int) -> List[CoherenceMessage]:
        return [m for m in self.messages if m.addr == addr]

    def clear(self) -> None:
        self.messages.clear()

    def __len__(self) -> int:
        return len(self.messages)

    def __iter__(self):
        return iter(self.messages)

    def render(self) -> str:
        return "\n".join(str(m) for m in self.messages)


class NullProtocolTrace(ProtocolTrace):
    """A permanently disabled trace: the LLC's default.

    Behaves like an empty :class:`ProtocolTrace`; ``record`` is a no-op
    even if ``enabled`` is flipped by accident.  Callers that want the
    message ladder pass a :class:`ProtocolTrace` instead.
    """

    def __init__(self) -> None:
        super().__init__(enabled=False)

    def record(self, msg: CoherenceMessage) -> None:  # pragma: no cover - trivial
        pass
