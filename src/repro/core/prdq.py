"""Precise Register Deallocation Queue (PRDQ).

Runahead-mode instructions borrow free physical registers but never commit, so
the conventional "free the previous mapping at commit" policy cannot reclaim
them.  The PRDQ (Section 3.4) is an in-order FIFO that implements *runahead
register reclamation*:

* an entry is allocated, in program order, for every runahead instruction that
  writes a register, recording the **previous** physical register mapped to
  the same architectural destination;
* the entry's ``executed`` bit is set when the instruction finishes executing
  (possibly out of order);
* entries deallocate strictly from the head, and only when executed — at that
  point no in-flight runahead instruction can still need the previous mapping,
  so it is returned to the free list.

One deviation from a literal reading of the paper is documented here: a
previous mapping that belongs to the *checkpointed* (pre-runahead) RAT is not
freed, because the stalled window still needs it after runahead exit; only
registers allocated during the current runahead interval are recycled.  The
queue is discarded wholesale at runahead exit (Section 3.5).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.uarch.core import DynInstr


@dataclass
class PRDQEntry:
    """One PRDQ slot: the instruction, the mapping it superseded, and an execute bit."""

    instr: "DynInstr"
    old_preg: Optional[int]
    old_is_fp: Optional[bool]
    #: Whether the previous mapping may be freed at deallocation (it must have
    #: been allocated during the current runahead interval).
    reclaim_old: bool
    executed: bool = False


@dataclass
class PRDQStats:
    """Occupancy and throughput statistics."""

    allocations: int = 0
    deallocations: int = 0
    registers_reclaimed: int = 0
    peak_occupancy: int = 0
    stalls_full: int = 0


class PreciseRegisterDeallocationQueue:
    """In-order FIFO used to reclaim physical registers in runahead mode."""

    #: Bytes of storage per entry (instruction id + register tag + execute bit,
    #: Section 3.6: 192 entries -> 768 bytes).
    ENTRY_BYTES = 4

    def __init__(self, capacity: int = 192) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.stats = PRDQStats()
        self._entries: Deque[PRDQEntry] = deque()
        #: Each queued entry by its instruction, so marking one executed is
        #: a lookup rather than a walk of the queue.
        self._by_instr: Dict["DynInstr", PRDQEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def is_full(self) -> bool:
        """Whether runahead dispatch must stall for lack of PRDQ space."""
        return len(self._entries) >= self.capacity

    @property
    def storage_bytes(self) -> int:
        """Total SRAM storage required by the queue."""
        return self.capacity * self.ENTRY_BYTES

    def allocate(
        self,
        instr: "DynInstr",
        old_preg: Optional[int],
        old_is_fp: Optional[bool],
        reclaim_old: bool,
    ) -> PRDQEntry:
        """Append an entry at the tail (program order)."""
        if self.is_full:
            self.stats.stalls_full += 1
            raise OverflowError("PRDQ overflow")
        entry = PRDQEntry(instr, old_preg, old_is_fp, reclaim_old)
        entries = self._entries
        entries.append(entry)
        self._by_instr[instr] = entry
        stats = self.stats
        stats.allocations += 1
        if len(entries) > stats.peak_occupancy:
            stats.peak_occupancy = len(entries)
        return entry

    def mark_executed(self, instr: "DynInstr") -> bool:
        """Set the execute bit of the entry belonging to ``instr``; return whether found."""
        entry = self._by_instr.get(instr)
        if entry is None:
            return False
        entry.executed = True
        return True

    def deallocate_ready(self, free_register: Callable[[bool, int], None]) -> int:
        """Deallocate executed entries from the head, in order.

        ``free_register(is_fp, preg)`` is called for every previous mapping
        that may be reclaimed.  Returns the number of entries deallocated.
        """
        deallocated = 0
        while self._entries and self._entries[0].executed:
            entry = self._entries.popleft()
            del self._by_instr[entry.instr]
            self.stats.deallocations += 1
            deallocated += 1
            if entry.reclaim_old and entry.old_preg is not None and entry.old_is_fp is not None:
                free_register(entry.old_is_fp, entry.old_preg)
                self.stats.registers_reclaimed += 1
        return deallocated

    def clear(self) -> List[PRDQEntry]:
        """Discard all entries (runahead exit); return them for inspection."""
        entries = list(self._entries)
        self._entries.clear()
        self._by_instr.clear()
        return entries
