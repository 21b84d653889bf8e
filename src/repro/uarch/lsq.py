"""Load and store queues.

Tracks in-flight memory operations for occupancy (64 + 64 entries in Table 1)
and provides store-to-load forwarding: a load whose address matches an older,
not-yet-committed store receives its data from the store queue in one cycle
instead of accessing the cache hierarchy.

Runahead-mode loads issued by PRE do not allocate load-queue entries: they are
prefetches whose results are discarded, so they need no ordering bookkeeping
(the MSHR file still bounds how many of them can be outstanding).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.uarch.core import DynInstr


class LoadStoreQueues:
    """Combined model of the load queue and store queue."""

    def __init__(self, load_entries: int = 64, store_entries: int = 64) -> None:
        if load_entries <= 0 or store_entries <= 0:
            raise ValueError("queue sizes must be positive")
        self.load_entries = load_entries
        self.store_entries = store_entries
        self._loads: List["DynInstr"] = []
        self._stores: List["DynInstr"] = []

    # -------------------------------------------------------------- occupancy

    @property
    def load_queue_full(self) -> bool:
        """Whether a new load cannot be dispatched."""
        return len(self._loads) >= self.load_entries

    @property
    def store_queue_full(self) -> bool:
        """Whether a new store cannot be dispatched."""
        return len(self._stores) >= self.store_entries

    @property
    def load_occupancy(self) -> int:
        """Number of loads currently tracked."""
        return len(self._loads)

    def can_dispatch(self, instr: "DynInstr") -> bool:
        """Whether the queues have room for ``instr`` (always true for non-memory ops)."""
        return self.can_dispatch_uop(instr.uop)

    def can_dispatch_uop(self, uop) -> bool:
        """Whether the queues have room for a micro-op of the given kind."""
        if uop.is_load:
            return not self.load_queue_full
        if uop.is_store:
            return not self.store_queue_full
        return True

    # --------------------------------------------------------------- tracking

    def dispatch(self, instr: "DynInstr") -> None:
        """Allocate a queue entry for a dispatched memory instruction."""
        if instr.uop.is_load:
            if self.load_queue_full:
                raise OverflowError("load queue overflow")
            self._loads.append(instr)
        elif instr.uop.is_store:
            if self.store_queue_full:
                raise OverflowError("store queue overflow")
            self._stores.append(instr)

    def release(self, instr: "DynInstr") -> None:
        """Free the queue entry of a committed or squashed memory instruction."""
        if instr.uop.is_load and instr in self._loads:
            self._loads.remove(instr)
        elif instr.uop.is_store and instr in self._stores:
            self._stores.remove(instr)

    def clear(self) -> None:
        """Empty both queues (pipeline flush)."""
        self._loads.clear()
        self._stores.clear()

    # ------------------------------------------------------------- forwarding

    def forwarding_store(self, load: "DynInstr") -> Optional["DynInstr"]:
        """Return the youngest older store to the same address, if any.

        Only exact address matches forward; overlapping partial accesses are
        treated as misses to keep the model simple.
        """
        candidate: Optional["DynInstr"] = None
        for store in self._stores:
            if store.seq >= load.seq:
                continue
            if store.uop.mem_addr == load.uop.mem_addr:
                if candidate is None or store.seq > candidate.seq:
                    candidate = store
        return candidate
