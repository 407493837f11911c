"""In-memory key-value store offload (§VIII outlook).

GET/PUT on an open-addressing hash table: every operation is a handful
of fine-grained probes at pseudo-random addresses, plus a value touch.
The store runs functionally (real inserts/lookups) while its probe
trace is replayed on the CXL and PCIe substrates.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.apps.offload import Access, AccessTraceEngine, OffloadComparison
from repro.config.system import SystemConfig

_SLOT_BYTES = 64          # one bucket per cacheline: key + value pointer
_TABLE_BASE = 0x5000_0000
_VALUE_BASE = 0x7000_0000


class KvStore:
    """Open-addressing (linear probing) hash table with a trace tap."""

    def __init__(self, slots: int = 4096, value_bytes: int = 128) -> None:
        if slots & (slots - 1):
            raise ValueError("slot count must be a power of two")
        self.slots = slots
        self.value_bytes = value_bytes
        self._keys: List[Optional[str]] = [None] * slots
        self._values: Dict[str, bytes] = {}
        self.trace: List[Access] = []
        self.probes = 0

    def _slot_addr(self, slot: int) -> int:
        return _TABLE_BASE + slot * _SLOT_BYTES

    def _value_addr(self, slot: int) -> int:
        return _VALUE_BASE + slot * self.value_bytes

    def _probe(self, key: str) -> Tuple[int, bool]:
        """Linear probing; returns (slot, found).

        Keys hash with CRC-32, not ``hash``, which Python salts per
        process: the probe trace, and so every result, must not depend
        on ``PYTHONHASHSEED``.
        """
        slot = zlib.crc32(key.encode()) & (self.slots - 1)
        for step in range(self.slots):
            index = (slot + step) & (self.slots - 1)
            self.probes += 1
            self.trace.append(Access(self._slot_addr(index)))
            existing = self._keys[index]
            if existing is None:
                return index, False
            if existing == key:
                return index, True
        raise RuntimeError("hash table full")

    def put(self, key: str, value: bytes) -> None:
        slot, _found = self._probe(key)
        self._keys[slot] = key
        self._values[key] = value
        # Write the value body (one access per cacheline).
        for line in range(-(-len(value) // 64)):
            self.trace.append(Access(self._value_addr(slot) + line * 64, write=True))

    def get(self, key: str) -> Optional[bytes]:
        slot, found = self._probe(key)
        if not found:
            return None
        value = self._values[key]
        for line in range(-(-len(value) // 64)):
            self.trace.append(Access(self._value_addr(slot) + line * 64))
        return value

    def __len__(self) -> int:
        return len(self._values)


def kv_offload_study(
    config: SystemConfig,
    operations: int = 800,
    keys: int = 200,
    get_fraction: float = 0.8,
    seed: int = 13,
) -> OffloadComparison:
    """A GET-heavy workload (the paper's GET/PUT offload scenario)."""
    rng = random.Random(seed)
    store = KvStore()
    universe = [f"key-{i}" for i in range(keys)]
    reference: Dict[str, bytes] = {}
    # Warm the store.
    for key in universe:
        value = bytes(rng.randrange(256) for _ in range(96))
        store.put(key, value)
        reference[key] = value
    store.trace.clear()

    for _ in range(operations):
        key = rng.choice(universe)
        if rng.random() < get_fraction:
            got = store.get(key)
            if got != reference[key]:
                raise AssertionError(f"GET {key} returned wrong value")
        else:
            value = bytes(rng.randrange(256) for _ in range(96))
            store.put(key, value)
            reference[key] = value

    engine = AccessTraceEngine(config)
    return engine.compare("kvstore", store.trace)
