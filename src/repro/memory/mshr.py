"""Miss Status Holding Registers (MSHRs).

The MSHR file bounds the number of distinct cache lines that may be in flight
from the memory system at once — i.e. it bounds the memory-level parallelism
the core (and runahead execution) can expose.  Requests to a line that is
already outstanding merge with the existing entry and observe only the
remaining latency.

Since the fill-on-completion rewrite of the hierarchy, the MSHR file is the
*single book of record* for outstanding lines: every miss transaction —
demand load or store, instruction fetch, hardware prefetch, runahead
prefetch — allocates exactly one entry here, and the entry lives exactly as
long as the fill is outstanding.  Entries carry the metadata merging requests
need (:attr:`MSHREntry.is_dram` marks off-chip fills, the class of loads that
cause full-window stalls in the paper).

Expiry is driven by a completion-ordered heap rather than a full scan of the
entry dictionary: the file is consulted on *every* memory access (the vast
majority of which are L1 hits with nothing outstanding), so the common case
must be a single heap-top comparison, not an O(entries) sweep.  Heap items
may be stale — :meth:`allocate` records a provisional completion that
:meth:`update` later finalises — and are lazily re-queued when popped, which
preserves the invariant of exactly one live heap item per outstanding line.
"""

from __future__ import annotations

from heapq import heappop, heappush
from dataclasses import dataclass
from typing import List, Optional, Tuple


@dataclass
class MSHRStats:
    """Counters describing MSHR behaviour."""

    allocations: int = 0
    merges: int = 0
    full_rejections: int = 0
    peak_occupancy: int = 0


class MSHREntry:
    """One outstanding line fill.

    Attributes
    ----------
    completion_cycle:
        Cycle at which the fill's data is available (and the entry frees).
    is_dram:
        Whether the fill is being serviced off-chip; merging requests inherit
        this as their ``is_long_latency``.
    """

    __slots__ = ("completion_cycle", "is_dram")

    def __init__(self, completion_cycle: int, is_dram: bool = False) -> None:
        self.completion_cycle = completion_cycle
        self.is_dram = is_dram

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MSHREntry(completion_cycle={self.completion_cycle}, is_dram={self.is_dram})"


class MSHRFile:
    """Tracks outstanding line fills, with merging and a capacity limit."""

    def __init__(self, num_entries: int = 32, line_bytes: int = 64) -> None:
        if num_entries <= 0:
            raise ValueError("num_entries must be positive")
        self.num_entries = num_entries
        self.line_bytes = line_bytes
        self.stats = MSHRStats()
        # line number -> outstanding fill record
        self._inflight: dict = {}
        # (recorded completion, line) — possibly stale; exactly one live item
        # per outstanding line (stale items re-queue when popped).
        self._expiry: List[Tuple[int, int]] = []

    def _expire(self, cycle: int) -> None:
        """Drop every entry whose fill completed by ``cycle``.

        Completion cycles only ever move *forward* (a provisional entry is
        finalised to its real, later completion by :meth:`update`), so a
        popped heap item whose entry is still live is simply re-queued at
        the entry's current completion.
        """
        heap = self._expiry
        if not heap or heap[0][0] > cycle:
            return
        inflight = self._inflight
        while heap and heap[0][0] <= cycle:
            _, line = heappop(heap)
            entry = inflight.get(line)
            if entry is None:
                continue
            if entry.completion_cycle <= cycle:
                del inflight[line]
            else:
                heappush(heap, (entry.completion_cycle, line))

    def occupancy(self, cycle: int) -> int:
        """Number of fills still outstanding at ``cycle``."""
        self._expire(cycle)
        return len(self._inflight)

    def is_full(self, cycle: int) -> bool:
        """Whether a new (non-merging) miss would be rejected at ``cycle``."""
        return self.occupancy(cycle) >= self.num_entries

    def lookup(self, addr: int, cycle: int) -> Optional[MSHREntry]:
        """The outstanding fill covering ``addr``, without counting a merge."""
        self._expire(cycle)
        return self._inflight.get(addr // self.line_bytes)

    def outstanding_completion(self, addr: int, cycle: int) -> Optional[int]:
        """Completion cycle of an in-flight fill covering ``addr``, or ``None``."""
        entry = self.lookup(addr, cycle)
        return entry.completion_cycle if entry is not None else None

    def earliest_completion(self, cycle: int) -> Optional[int]:
        """Completion cycle of the next entry to free, or ``None`` when empty."""
        self._expire(cycle)
        heap = self._expiry
        inflight = self._inflight
        while heap:
            completion, line = heap[0]
            entry = inflight.get(line)
            if entry is None:
                heappop(heap)
                continue
            if entry.completion_cycle != completion:
                heappop(heap)
                heappush(heap, (entry.completion_cycle, line))
                continue
            return completion
        return None

    def allocate(
        self,
        addr: int,
        completion_cycle: int,
        cycle: int,
        is_dram: bool = False,
        limit: Optional[int] = None,
    ) -> bool:
        """Record a new outstanding fill.

        ``limit`` caps the occupancy this request may grow the file to;
        prefetches pass ``num_entries - demand_reserve`` so speculative
        traffic can never take the entries reserved for demand misses.

        Returns False (and counts a rejection) if the applicable limit is
        reached and the line is not already outstanding; the caller must
        retry later.
        """
        self._expire(cycle)
        line = addr // self.line_bytes
        inflight = self._inflight
        stats = self.stats
        if line in inflight:
            stats.merges += 1
            return True
        cap = self.num_entries if limit is None else min(limit, self.num_entries)
        if len(inflight) >= cap:
            stats.full_rejections += 1
            return False
        inflight[line] = MSHREntry(completion_cycle, is_dram)
        heappush(self._expiry, (completion_cycle, line))
        stats.allocations += 1
        if len(inflight) > stats.peak_occupancy:
            stats.peak_occupancy = len(inflight)
        return True

    def update(self, addr: int, completion_cycle: int, is_dram: bool) -> None:
        """Finalise a provisional entry once the miss path has its latency."""
        line = addr // self.line_bytes
        entry = self._inflight.get(line)
        if entry is None:
            raise KeyError(f"no outstanding MSHR entry for address {addr:#x}")
        if completion_cycle < entry.completion_cycle:
            # Completions normally only move later (provisional -> real), but
            # a zero-latency cache configuration can finalise *earlier* than
            # the provisional heap item; queue a fresh item so expiry never
            # runs late.  Duplicate heap items are tolerated by the lazy pops.
            heappush(self._expiry, (completion_cycle, line))
        entry.completion_cycle = completion_cycle
        entry.is_dram = is_dram

    def merge(self, addr: int, cycle: int) -> Optional[MSHREntry]:
        """Merge a request with an outstanding fill; return its entry."""
        entry = self.lookup(addr, cycle)
        if entry is not None:
            self.stats.merges += 1
        return entry

    def clear(self) -> None:
        """Drop all outstanding entries (used when resetting the hierarchy)."""
        self._inflight.clear()
        self._expiry.clear()
