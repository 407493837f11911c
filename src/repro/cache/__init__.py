"""Cache substrate: arrays, MESI coherence, peer caches, LLC home agent."""

from repro.cache.block import CacheBlock, MesiState
from repro.cache.array import CacheArray
from repro.cache.messages import CoherenceMessage, MessageType
from repro.cache.mesi import (
    ALLOWED_TRANSITIONS,
    check_transition,
    ProtocolError,
)
from repro.cache.llc import SharedLLC, LlcOp
from repro.cache.hmc import HostMemoryCache
from repro.cache.hierarchy import HierarchicalDomain, LocalAgent

__all__ = [
    "CacheBlock",
    "MesiState",
    "CacheArray",
    "CoherenceMessage",
    "MessageType",
    "ALLOWED_TRANSITIONS",
    "check_transition",
    "ProtocolError",
    "SharedLLC",
    "LlcOp",
    "HostMemoryCache",
    "HierarchicalDomain",
    "LocalAgent",
]
