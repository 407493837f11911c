"""Physical address ranges and channel interleaving."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

CACHELINE = 64
#: ``addr & LINE_MASK == line_base(addr)`` for every int, negatives
#: included: the hot paths align inline with it.
LINE_MASK = ~(CACHELINE - 1)


def line_base(addr: int, line: int = CACHELINE) -> int:
    """Base address of the cacheline containing ``addr``."""
    return addr - (addr % line)


def line_offset(addr: int, line: int = CACHELINE) -> int:
    return addr % line


@dataclass(frozen=True)
class AddressRange:
    """A half-open physical address range ``[start, end)``."""

    start: int
    end: int
    name: str = ""

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(f"empty address range [{self.start}, {self.end})")

    @property
    def size(self) -> int:
        return self.end - self.start

    def contains(self, addr: int) -> bool:
        return self.start <= addr < self.end

    def overlaps(self, other: "AddressRange") -> bool:
        return self.start < other.end and other.start < self.end

    def offset(self, addr: int) -> int:
        if not self.contains(addr):
            raise ValueError(f"address {addr:#x} outside range {self}")
        return addr - self.start

    def __str__(self) -> str:
        label = f" {self.name}" if self.name else ""
        return f"[{self.start:#x}, {self.end:#x}){label}"


class Interleaver:
    """Cacheline-granularity channel interleaving.

    Maps a physical address to ``(channel, channel-local address)`` and
    back; the mapping is a bijection, which the property tests verify.
    """

    def __init__(self, channels: int, granule: int = CACHELINE) -> None:
        if channels <= 0:
            raise ValueError("need at least one channel")
        if granule <= 0 or granule % CACHELINE:
            raise ValueError("granule must be a positive multiple of a cacheline")
        self.channels = channels
        self.granule = granule

    def map(self, addr: int) -> tuple:
        granule_index, offset = divmod(addr, self.granule)
        channel = granule_index % self.channels
        local = (granule_index // self.channels) * self.granule + offset
        return channel, local

    def unmap(self, channel: int, local: int) -> int:
        if not 0 <= channel < self.channels:
            raise ValueError(f"channel {channel} out of range")
        local_granule, offset = divmod(local, self.granule)
        granule_index = local_granule * self.channels + channel
        return granule_index * self.granule + offset


def split_evenly(region: AddressRange, parts: int) -> List[AddressRange]:
    """Split ``region`` into ``parts`` contiguous sub-ranges."""
    if parts <= 0:
        raise ValueError("parts must be positive")
    size = region.size // parts
    if size == 0:
        raise ValueError("region too small to split")
    ranges = []
    start = region.start
    for i in range(parts):
        end = region.end if i == parts - 1 else start + size
        ranges.append(AddressRange(start, end, f"{region.name}/{i}"))
        start = end
    return ranges
