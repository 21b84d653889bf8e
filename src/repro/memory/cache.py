"""Set-associative cache model with LRU replacement and write-back policy."""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.serde import JSONSerializable


@dataclass(frozen=True)
class CacheConfig(JSONSerializable):
    """Geometry and latency of a single cache level.

    Attributes
    ----------
    name:
        Label used in statistics and energy reports (e.g. ``"L1D"``).
    size_bytes:
        Total capacity.
    associativity:
        Number of ways per set.
    line_bytes:
        Cache-line size; 64 bytes throughout the paper.
    latency:
        Access latency in core cycles (hit latency of this level).
    """

    name: str
    size_bytes: int
    associativity: int
    line_bytes: int = 64
    latency: int = 1

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.associativity <= 0 or self.line_bytes <= 0:
            raise ValueError("cache geometry parameters must be positive")
        if self.latency < 0:
            raise ValueError("latency must be non-negative")
        if self.size_bytes % (self.associativity * self.line_bytes) != 0:
            raise ValueError(
                f"{self.name}: size must be a multiple of associativity * line size"
            )

    @property
    def num_sets(self) -> int:
        """Number of sets in the cache."""
        return self.size_bytes // (self.associativity * self.line_bytes)


@dataclass
class CacheStats:
    """Per-cache access statistics."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    prefetch_fills: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of accesses that hit."""
        return self.hits / self.accesses if self.accesses else 0.0


class SetAssociativeCache:
    """A set-associative, write-back, write-allocate cache with LRU replacement.

    The cache tracks only tags and dirty bits (no data) — sufficient for a
    timing model.  Addresses are byte addresses; all methods operate on the
    line containing the address.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.stats = CacheStats()
        # Geometry constants, denormalised out of the (frozen) config so the
        # per-access address split costs two integer ops, not two property
        # evaluations with a division each.
        self._line_bytes = config.line_bytes
        self._num_sets = config.num_sets
        # One ordered dict per set: tag -> dirty bit, ordered from LRU to MRU.
        self._sets: Dict[int, "OrderedDict[int, bool]"] = {}

    def _index_and_tag(self, addr: int) -> Tuple[int, int]:
        line = addr // self._line_bytes
        return line % self._num_sets, line // self._num_sets

    def line_address(self, addr: int) -> int:
        """Return the base address of the line containing ``addr``."""
        return (addr // self._line_bytes) * self._line_bytes

    def contains(self, addr: int) -> bool:
        """Check residency without updating LRU state or statistics."""
        index, tag = self._index_and_tag(addr)
        return tag in self._sets.get(index, {})

    def lookup(self, addr: int, is_write: bool = False) -> bool:
        """Probe the cache for ``addr``; update LRU and statistics.

        Returns True on a hit.  On a hit, a write marks the line dirty.  A
        miss does not allocate; callers decide whether to :meth:`fill`.
        """
        stats = self.stats
        stats.accesses += 1
        line = addr // self._line_bytes
        index = line % self._num_sets
        ways = self._sets.get(index)
        if ways is not None:
            tag = line // self._num_sets
            if tag in ways:
                stats.hits += 1
                dirty = ways.pop(tag)
                ways[tag] = dirty or is_write
                return True
        stats.misses += 1
        return False

    def fill(self, addr: int, dirty: bool = False, is_prefetch: bool = False) -> Optional[int]:
        """Install the line containing ``addr``.

        Returns the base address of a dirty line that must be written back, or
        ``None`` if no write-back is required.  Filling a line that is already
        resident only updates its LRU position and dirty bit.
        """
        index, tag = self._index_and_tag(addr)
        ways = self._sets.setdefault(index, OrderedDict())
        if tag in ways:
            existing = ways.pop(tag)
            ways[tag] = existing or dirty
            return None
        if is_prefetch:
            self.stats.prefetch_fills += 1
        writeback_addr: Optional[int] = None
        if len(ways) >= self.config.associativity:
            victim_tag, victim_dirty = ways.popitem(last=False)
            self.stats.evictions += 1
            if victim_dirty:
                self.stats.writebacks += 1
                victim_line = victim_tag * self._num_sets + index
                writeback_addr = victim_line * self._line_bytes
        ways[tag] = dirty
        return writeback_addr

    def invalidate(self, addr: int) -> bool:
        """Remove the line containing ``addr`` if present; return whether it was resident."""
        index, tag = self._index_and_tag(addr)
        ways = self._sets.get(index)
        if ways is not None and tag in ways:
            del ways[tag]
            return True
        return False

    def resident_lines(self) -> int:
        """Number of lines currently resident (useful for tests)."""
        return sum(len(ways) for ways in self._sets.values())
