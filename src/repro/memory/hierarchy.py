"""The composed memory hierarchy: L1I/L1D, private L2, shared L3, DRAM, MSHRs.

Geometry and latencies default to Table 1 of the paper.  The hierarchy is a
timing model at cache-line granularity built around *fill-on-completion
transactions*:

* an access returns an :class:`AccessResult` whose ``latency`` is the number
  of core cycles until the data is available;
* every miss — demand load or store, instruction fetch, hardware prefetch,
  runahead prefetch — goes through one shared miss path
  (:meth:`PrivateHierarchy._miss_path`) that walks L2 -> L3 -> DRAM, allocates
  an MSHR entry, and queues a fill transaction;
* cache lines are installed only when their fill's latency has elapsed
  (:meth:`PrivateHierarchy._expire_inflight` drains due transactions), so
  ``contains()`` and LRU state never observe the future;
* the MSHR file is the single book of record for outstanding lines: any
  access to a line already in flight (a demand load hitting under a runahead
  prefetch, two runahead loads to the same line, repeated fetches of one
  missing instruction line) merges with the MSHR entry and observes only the
  *remaining* latency, and the number of distinct lines in flight is bounded
  by the MSHR capacity, which bounds exploitable memory-level parallelism;
* dirty victims propagate level by level (L1D -> L2 -> L3 -> DRAM) when fills
  evict them, and the final DRAM writeback queues on the real cycle, so
  writeback traffic occupies banks and the shared bus like any other request.

Multi-core split
----------------
The hierarchy is composed of two halves joined by the
:class:`~repro.memory.port.MemoryPort` seam:

* :class:`PrivateHierarchy` — the per-core front half: L1I/L1D/L2, the MSHR
  file, the fill queue and the optional prefetcher.  It stamps its
  ``core_id`` on every shared-level request and (optionally) offsets all
  addresses by a per-core stride so co-running cores occupy disjoint
  address spaces.
* :class:`SharedUncore` — the back half every core shares: the L3, the DRAM
  model (banks, row buffers, read/write queues and the shared data bus) and
  per-core attribution counters answering *who* is using the shared
  resources.

A ``PrivateHierarchy()`` built without an uncore makes its own one-core
uncore: the single-core composition, running exactly the code of an N-core
private half.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.memory.cache import CacheConfig, SetAssociativeCache
from repro.memory.dram import DRAMConfig, DRAMModel
from repro.memory.mshr import MSHRFile
from repro.memory.port import InstructionPort
from repro.memory.prefetcher import NextLinePrefetcher, StridePrefetcher
from repro.serde import JSONSerializable


class MemoryLevel(enum.Enum):
    """The level of the hierarchy that serviced an access."""

    L1I = "L1I"
    L1D = "L1D"
    L2 = "L2"
    L3 = "L3"
    DRAM = "DRAM"
    INFLIGHT = "inflight"


class RequestKind(enum.Enum):
    """What kind of request is walking the miss path.

    Every kind shares the same L2 -> L3 -> DRAM walk; the kind decides which
    L1 the fill targets, whether the line installs dirty, whether the MSHR
    demand reserve applies, and which statistics the walk contributes to.
    """

    LOAD = "load"
    STORE = "store"
    IFETCH = "ifetch"
    HW_PREFETCH = "hw_prefetch"
    RUNAHEAD_PREFETCH = "runahead_prefetch"

    @property
    def is_prefetch(self) -> bool:
        """Speculative kinds, subject to the MSHR demand reserve."""
        return self in (RequestKind.HW_PREFETCH, RequestKind.RUNAHEAD_PREFETCH)

    @property
    def is_ifetch(self) -> bool:
        """Instruction-side kinds, filling towards the L1I."""
        return self is RequestKind.IFETCH


class AccessResult:
    """Outcome of a memory access.

    A ``__slots__`` value class, immutable by convention: one used to be
    allocated per access, but L1 hits (~95% of accesses) now return a
    preallocated shared instance (see :attr:`PrivateHierarchy._l1d_hit`), so
    treat results as read-only.

    Attributes
    ----------
    latency:
        Core cycles until the data is available.
    level:
        Hierarchy level that services the request (``INFLIGHT`` when merged
        with an outstanding fill).
    is_long_latency:
        True when the request is (or merged with) an off-chip DRAM access —
        the class of loads that cause full-window stalls in the paper.
    retried:
        True when the access could not be started because the MSHR file was
        full; the caller must retry on a later cycle.  For instruction
        fetches ``latency`` then carries the estimated wait until an MSHR
        entry frees.
    """

    __slots__ = ("latency", "level", "is_long_latency", "retried")

    def __init__(
        self,
        latency: int,
        level: MemoryLevel,
        is_long_latency: bool = False,
        retried: bool = False,
    ) -> None:
        self.latency = latency
        self.level = level
        self.is_long_latency = is_long_latency
        self.retried = retried

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AccessResult):
            return NotImplemented
        return (
            self.latency == other.latency
            and self.level is other.level
            and self.is_long_latency == other.is_long_latency
            and self.retried == other.retried
        )

    def __hash__(self) -> int:
        return hash((self.latency, self.level, self.is_long_latency, self.retried))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AccessResult(latency={self.latency}, level={self.level!r}, "
            f"is_long_latency={self.is_long_latency}, retried={self.retried})"
        )


class _FillTransaction:
    """An in-flight line fill: where it installs, when, and how.

    ``levels`` lists the caches the line installs into, outermost first, so
    eviction (and any dirty-victim cascade) at an outer level happens before
    the inner install.  Only the innermost level receives the dirty bit
    (write-allocate stores dirty the L1D; outer copies stay clean).
    """

    __slots__ = ("completion", "line_addr", "levels", "dirty", "is_prefetch")

    def __init__(
        self,
        completion: int,
        line_addr: int,
        levels: Tuple[SetAssociativeCache, ...],
        dirty: bool = False,
        is_prefetch: bool = False,
    ) -> None:
        self.completion = completion
        self.line_addr = line_addr
        self.levels = levels
        self.dirty = dirty
        self.is_prefetch = is_prefetch


@dataclass
class HierarchyConfig(JSONSerializable):
    """Configuration of the full memory hierarchy (defaults follow Table 1)."""

    l1i: CacheConfig = field(
        default_factory=lambda: CacheConfig("L1I", 32 * 1024, 4, latency=2)
    )
    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig("L1D", 32 * 1024, 8, latency=4)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig("L2", 256 * 1024, 8, latency=8)
    )
    l3: CacheConfig = field(
        default_factory=lambda: CacheConfig("L3", 1024 * 1024, 16, latency=30)
    )
    dram: DRAMConfig = field(default_factory=DRAMConfig)
    mshr_entries: int = 32
    #: MSHR entries that prefetches (runahead loads included) may never take,
    #: so speculative traffic cannot starve demand misses.
    mshr_demand_reserve: int = 4
    #: Optional hardware prefetcher trained on L1D demand accesses ("none",
    #: "nextline" or "stride").  The paper's baseline uses none.
    prefetcher: str = "none"


@dataclass
class HierarchyStats:
    """Aggregate statistics across one core's private hierarchy."""

    data_accesses: int = 0
    instruction_accesses: int = 0
    prefetch_accesses: int = 0
    long_latency_accesses: int = 0
    mshr_stalls: int = 0
    #: Lines installed into some cache level by a completed fill transaction
    #: (or a writeback landing from the level above).
    lines_installed: int = 0
    #: Dirty victims transferred to the next level down (the last hop of the
    #: chain is a DRAM write, also visible in ``DRAMStats.writes``).
    writebacks: int = 0


class SharedUncore:
    """The shared back half of the hierarchy: L3 + DRAM + the data bus.

    One instance is shared by every core of a multi-core simulation (a
    single-core run owns a degenerate one-core instance).  Besides the L3 and
    the DRAM model themselves, the uncore keeps *per-core attribution*: for
    each requesting core, how many L3 hits/misses and DRAM reads/writes it
    generated, how many cycles its requests sat in the DRAM queues, and how
    long its transfers occupied the shared data bus.  The attribution is
    bookkeeping only — it never feeds back into timing — so the degenerate
    single-core uncore stays bit-identical to the pre-split hierarchy.
    """

    __slots__ = (
        "config",
        "l3",
        "dram",
        "num_cores",
        "l3_hits",
        "l3_misses",
        "dram_reads",
        "dram_writes",
        "dram_queue_delay_cycles",
        "bus_busy_cycles",
    )

    def __init__(
        self, config: Optional[HierarchyConfig] = None, num_cores: int = 1
    ) -> None:
        if num_cores < 1:
            raise ValueError(f"num_cores must be >= 1, got {num_cores}")
        self.config = config or HierarchyConfig()
        self.l3 = SetAssociativeCache(self.config.l3)
        self.dram = DRAMModel(self.config.dram)
        self.num_cores = num_cores
        #: Per-core counters, indexed by ``core_id``.
        self.l3_hits = [0] * num_cores
        self.l3_misses = [0] * num_cores
        self.dram_reads = [0] * num_cores
        self.dram_writes = [0] * num_cores
        #: Cycles each core's DRAM requests spent waiting for a busy bank or
        #: the shared bus — the contention a co-runner inflicts.
        self.dram_queue_delay_cycles = [0] * num_cores
        #: Cycles each core's transfers occupied the shared data bus.
        self.bus_busy_cycles = [0] * num_cores

    def read(self, addr: int, cycle: int, core_id: int) -> int:
        """A demand/prefetch fill reaching DRAM; returns its latency."""
        dram = self.dram
        latency = dram.access(addr, cycle, is_write=False)
        self.dram_reads[core_id] += 1
        self.dram_queue_delay_cycles[core_id] += dram.last_queue_delay
        self.bus_busy_cycles[core_id] += dram.last_bus_cycles
        return latency

    def write(self, addr: int, cycle: int, core_id: int) -> int:
        """A posted writeback reaching DRAM; returns its (unwaited) latency."""
        dram = self.dram
        latency = dram.access(addr, cycle, is_write=True)
        self.dram_writes[core_id] += 1
        self.dram_queue_delay_cycles[core_id] += dram.last_queue_delay
        self.bus_busy_cycles[core_id] += dram.last_bus_cycles
        return latency


class PrivateHierarchy:
    """One core's private front half, backed by a (possibly shared) uncore.

    Owns the L1I/L1D/L2, the MSHR file, the fill queue and the optional
    prefetcher; the L3 and DRAM live in :attr:`uncore` and are reached
    through it (the :attr:`l3`/:attr:`dram` properties exist for reports and
    tests).  Implements the :class:`~repro.memory.port.MemoryPort` protocol —
    ``access_data``/``access_instruction``/``can_accept``/
    ``earliest_completion``/``drain`` — which is the only surface the core
    drives.

    ``addr_offset`` relocates this core's entire address space (instructions
    and data) by a fixed stride, so heterogeneous co-runners never alias in
    the shared L3 or DRAM banks unless the experiment wants them to; the
    default of 0 is the bit-identical single-core path.
    """

    __slots__ = (
        "config",
        "uncore",
        "core_id",
        "l1i",
        "l1d",
        "l2",
        "mshrs",
        "stats",
        "prefetcher",
        "_l1d_hit",
        "_l1i_hit",
        "_fill_queue",
        "_fill_seq",
        "_addr_offset",
        "fill_listener",
        "writeback_listener",
    )

    def __init__(
        self,
        config: Optional[HierarchyConfig] = None,
        uncore: Optional[SharedUncore] = None,
        core_id: int = 0,
        addr_offset: int = 0,
    ) -> None:
        self.config = config or HierarchyConfig()
        self.uncore = uncore if uncore is not None else SharedUncore(self.config)
        if not 0 <= core_id < self.uncore.num_cores:
            raise ValueError(
                f"core_id {core_id} out of range for a "
                f"{self.uncore.num_cores}-core uncore"
            )
        self.core_id = core_id
        self.l1i = SetAssociativeCache(self.config.l1i)
        self.l1d = SetAssociativeCache(self.config.l1d)
        self.mshrs = MSHRFile(self.config.mshr_entries, self.config.l1d.line_bytes)
        self.l2 = SetAssociativeCache(self.config.l2)
        self.stats = HierarchyStats()
        # Shared, immutable hit results: an L1 hit is ~95% of traffic and its
        # outcome is a constant of the configuration, so hits allocate nothing.
        self._l1d_hit = AccessResult(self.config.l1d.latency, MemoryLevel.L1D)
        self._l1i_hit = AccessResult(self.config.l1i.latency, MemoryLevel.L1I)
        # Due-date ordered fill transactions: (completion, seq, transaction).
        # This is transaction *payload* (which caches to touch); the MSHR file
        # alone answers "is this line outstanding?".
        self._fill_queue: List[Tuple[int, int, _FillTransaction]] = []
        self._fill_seq = 0
        self._addr_offset = addr_offset
        #: Optional observers called as (level_name, line_addr, cycle) when a
        #: line installs / a dirty victim moves down; the core bridges these
        #: to ``on_fill`` / ``on_writeback`` probes.
        self.fill_listener: Optional[Callable[[str, int, int], None]] = None
        self.writeback_listener: Optional[Callable[[str, int, int], None]] = None
        if self.config.prefetcher == "nextline":
            self.prefetcher = NextLinePrefetcher(self.config.l1d.line_bytes)
        elif self.config.prefetcher == "stride":
            self.prefetcher = StridePrefetcher(self.config.l1d.line_bytes)
        elif self.config.prefetcher == "none":
            self.prefetcher = None
        else:
            raise ValueError(f"unknown prefetcher kind {self.config.prefetcher!r}")

    # ------------------------------------------------------------------ utils

    @property
    def l3(self) -> SetAssociativeCache:
        """The (shared) last-level cache, owned by the uncore."""
        return self.uncore.l3

    @property
    def dram(self) -> DRAMModel:
        """The (shared) DRAM model, owned by the uncore."""
        return self.uncore.dram

    def instruction_port(self) -> InstructionPort:
        """The narrowed instruction-side port handed to the front end."""
        return InstructionPort(self)

    def _line_addr(self, addr: int) -> int:
        return self.l1d.line_address(addr)

    def _next_level(self, cache: SetAssociativeCache) -> Optional[SetAssociativeCache]:
        if cache is self.l1d or cache is self.l1i:
            return self.l2
        if cache is self.l2:
            return self.uncore.l3
        return None

    def _expire_inflight(self, cycle: int) -> None:
        """Drain fill transactions whose latency has elapsed by ``cycle``.

        Each drained transaction installs its line into its target caches *at
        its completion cycle* — never earlier — evicting victims (and
        cascading their writebacks) as it lands.  The matching MSHR entries
        expire lazily inside the MSHR file at the same completion cycles.
        """
        fill_queue = self._fill_queue
        if not fill_queue or fill_queue[0][0] > cycle:
            return
        while fill_queue and fill_queue[0][0] <= cycle:
            _, _, txn = heapq.heappop(fill_queue)
            innermost = txn.levels[-1]
            for cache in txn.levels:
                self._install(
                    cache,
                    txn.line_addr,
                    txn.completion,
                    dirty=txn.dirty and cache is innermost,
                    # prefetch_fills keeps its L1-only meaning: outer levels
                    # install the line regardless of what requested it.
                    is_prefetch=txn.is_prefetch and cache is innermost,
                )

    def drain(self, cycle: int) -> None:
        """Public hook to settle all fills due by ``cycle`` (tests, probes)."""
        self._expire_inflight(cycle)

    def can_accept(self, cycle: int) -> bool:
        """Whether a new demand miss could take an MSHR entry at ``cycle``."""
        self._expire_inflight(cycle)
        return self.mshrs.occupancy(cycle) < self.config.mshr_entries

    def earliest_completion(self, cycle: int) -> Optional[int]:
        """Completion cycle of the earliest outstanding fill, or ``None``.

        The port-level wake-up candidate for a core blocked on memory; this
        is the public face of the MSHR file's book of record.
        """
        return self.mshrs.earliest_completion(cycle)

    # ----------------------------------------------------------------- access

    def access_data(
        self,
        addr: int,
        cycle: int,
        is_write: bool = False,
        is_prefetch: bool = False,
        pc: int = 0,
    ) -> AccessResult:
        """Access the data hierarchy for the line containing ``addr``.

        Writes model committed stores (write-allocate, write-back); they mark
        the L1D line dirty (a store merging with an in-flight fill dirties the
        pending fill, so the line still installs dirty).  Prefetch accesses
        behave like loads but are dropped (``retried=True``) rather than
        stalled when the MSHR file reaches the prefetch limit.
        """
        if self._addr_offset:
            addr += self._addr_offset
            pc += self._addr_offset
        stats = self.stats
        stats.data_accesses += 1
        if is_prefetch:
            stats.prefetch_accesses += 1
        self._expire_inflight(cycle)

        if self.mshrs._inflight:
            entry = self.mshrs.merge(addr, cycle)
            if entry is not None:
                if is_write:
                    self._mark_pending_dirty(addr)
                remaining = max(entry.completion_cycle - cycle, 1)
                latency = max(remaining, self.config.l1d.latency)
                if entry.is_dram:
                    stats.long_latency_accesses += 1
                return AccessResult(
                    latency, MemoryLevel.INFLIGHT, is_long_latency=entry.is_dram
                )

        if self.l1d.lookup(addr, is_write=is_write):
            if self.prefetcher is not None:
                self._train_prefetcher(pc, addr, cycle)
            return self._l1d_hit

        if is_prefetch:
            kind = RequestKind.RUNAHEAD_PREFETCH
        elif is_write:
            kind = RequestKind.STORE
        else:
            kind = RequestKind.LOAD
        result = self._miss_path(addr, cycle, kind)
        if self.prefetcher is not None and not result.retried:
            self._train_prefetcher(pc, addr, cycle)
        return result

    def access_instruction(self, pc: int, cycle: int) -> AccessResult:
        """Access the instruction side of the hierarchy for the line containing ``pc``.

        Instruction fetches use the same unified miss path as data accesses:
        repeated fetches of one missing line merge with its in-flight fill
        (observing only the remaining latency) instead of each paying a full
        DRAM access, and I-side misses take MSHR entries like D-side ones.
        """
        if self._addr_offset:
            pc += self._addr_offset
        self.stats.instruction_accesses += 1
        self._expire_inflight(cycle)
        if self.mshrs._inflight:
            entry = self.mshrs.merge(pc, cycle)
            if entry is not None:
                remaining = max(entry.completion_cycle - cycle, 1)
                latency = max(remaining, self.config.l1i.latency)
                return AccessResult(
                    latency, MemoryLevel.INFLIGHT, is_long_latency=entry.is_dram
                )
        if self.l1i.lookup(pc):
            return self._l1i_hit
        return self._miss_path(pc, cycle, RequestKind.IFETCH)

    # -------------------------------------------------------------- miss path

    def _miss_path(self, addr: int, cycle: int, kind: RequestKind) -> AccessResult:
        """The one shared L2 -> L3 -> DRAM walk behind every L1 miss.

        Allocates the transaction's MSHR entry (the admission decision — the
        ``allocate`` return value — is what rejects requests, enforcing the
        demand reserve for both hardware and runahead prefetches), walks the
        outer levels, and queues a fill transaction that installs the line
        when its latency elapses.  The shared levels are reached through the
        uncore, which attributes every L3 probe and DRAM request to this
        hierarchy's ``core_id``.
        """
        l1 = self.l1i if kind.is_ifetch else self.l1d
        limit: Optional[int] = None
        if kind.is_prefetch:
            limit = max(1, self.config.mshr_entries - self.config.mshr_demand_reserve)
        # Provisional allocation first: a rejected request must not perturb
        # DRAM bank or row-buffer state.
        if not self.mshrs.allocate(addr, cycle + 1, cycle, limit=limit):
            self.stats.mshr_stalls += 1
            if kind.is_ifetch:
                # The front end cannot replay a fetch packet out of order; it
                # waits for the next MSHR entry to free and retries the line.
                free_at = self.mshrs.earliest_completion(cycle)
                wait = max(free_at - cycle, 1) if free_at is not None else 1
                return AccessResult(wait, MemoryLevel.L1I, retried=True)
            return AccessResult(0, MemoryLevel.L1D, retried=True)

        uncore = self.uncore
        core_id = self.core_id
        latency = l1.config.latency
        if self.l2.lookup(addr):
            latency += self.config.l2.latency
            level = MemoryLevel.L2
            targets: Tuple[SetAssociativeCache, ...] = (l1,)
            is_dram = False
        elif uncore.l3.lookup(addr):
            uncore.l3_hits[core_id] += 1
            latency += self.config.l2.latency + self.config.l3.latency
            level = MemoryLevel.L3
            targets = (self.l2, l1)
            is_dram = False
        else:
            uncore.l3_misses[core_id] += 1
            dram_latency = uncore.read(addr, cycle, core_id)
            latency += self.config.l2.latency + self.config.l3.latency + dram_latency
            level = MemoryLevel.DRAM
            targets = (uncore.l3, self.l2, l1)
            is_dram = True
            if kind in (RequestKind.LOAD, RequestKind.STORE, RequestKind.RUNAHEAD_PREFETCH):
                self.stats.long_latency_accesses += 1

        completion = cycle + latency
        self.mshrs.update(addr, completion, is_dram)
        self._fill_seq += 1
        heapq.heappush(
            self._fill_queue,
            (
                completion,
                self._fill_seq,
                _FillTransaction(
                    completion=completion,
                    line_addr=self._line_addr(addr),
                    levels=targets,
                    dirty=kind is RequestKind.STORE,
                    is_prefetch=kind.is_prefetch,
                ),
            ),
        )
        return AccessResult(latency, level, is_long_latency=is_dram)

    def _mark_pending_dirty(self, addr: int) -> None:
        """A store merged with an in-flight fill: the line must install dirty.

        If the covering fill targets the L1I (the store merged with an
        instruction fetch to the same line), the returning line additionally
        installs into the L1D, which becomes the innermost level and receives
        the dirty bit — an I-cache can never hold dirty data.
        """
        line_addr = self._line_addr(addr)
        for _, _, txn in self._fill_queue:
            if txn.line_addr == line_addr:
                if txn.levels[-1] is self.l1i:
                    txn.levels = txn.levels + (self.l1d,)
                txn.dirty = True
                return

    # ------------------------------------------------------------------ fills

    def _install(
        self,
        cache: SetAssociativeCache,
        addr: int,
        cycle: int,
        dirty: bool = False,
        is_prefetch: bool = False,
    ) -> None:
        """Install a line into ``cache``, propagating any dirty victim down.

        A dirty victim is written back into the next level (marked dirty
        there), which may evict its own dirty victim, cascading until a DRAM
        write issues at the real ``cycle`` — so writeback traffic is neither
        dropped nor timestamp-poisoned.
        """
        victim = cache.fill(addr, dirty=dirty, is_prefetch=is_prefetch)
        self.stats.lines_installed += 1
        if self.fill_listener is not None:
            self.fill_listener(cache.config.name, self._line_addr(addr), cycle)
        if victim is None:
            return
        self.stats.writebacks += 1
        if self.writeback_listener is not None:
            self.writeback_listener(cache.config.name, victim, cycle)
        below = self._next_level(cache)
        if below is None:
            # L3 victim: a posted DRAM write.  Nobody waits on its latency,
            # but it queues at the real cycle and occupies a bank and the
            # shared bus, delaying subsequent fills.
            self.uncore.write(victim, cycle, self.core_id)
        else:
            self._install(below, victim, cycle, dirty=True)

    def _train_prefetcher(self, pc: int, addr: int, cycle: int) -> None:
        if self.prefetcher is None:
            return
        for target in self.prefetcher.train(pc, addr):
            if self.mshrs.lookup(target, cycle) is not None or self.l1d.contains(target):
                self.prefetcher.stats.prefetches_dropped += 1
                continue
            result = self._miss_path(target, cycle, RequestKind.HW_PREFETCH)
            if result.retried:
                self.prefetcher.stats.prefetches_dropped += 1
                break

    def warm(self, addresses, dirty: bool = False) -> None:
        """Pre-install lines in all cache levels (useful for tests and warm-up).

        Warming bypasses fill timing — it models state left behind before the
        measured window — but victims still cascade properly.
        """
        offset = self._addr_offset
        for addr in addresses:
            if offset:
                addr += offset
            self._install(self.uncore.l3, addr, 0)
            self._install(self.l2, addr, 0)
            self._install(self.l1d, addr, 0, dirty=dirty)
