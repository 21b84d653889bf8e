"""Issue queue (reservation stations).

Instructions wait here after dispatch until all their source physical
registers are ready, then issue oldest-first up to the issue width, subject to
per-cycle load/store port limits.  Capacity is 92 entries in the paper's
baseline.  Runahead-mode instructions share the queue with the stalled
window's instructions, which is why Section 3.4 reports free-entry statistics
at runahead entry.
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING, Callable, Iterator, List, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.uarch.core import DynInstr

_SEQ_KEY = operator.attrgetter("seq")


class IssueQueue:
    """Bounded, age-ordered pool of not-yet-issued instructions.

    ``_entries`` is kept sorted by sequence number.  Dispatch almost always
    inserts in age order, so an out-of-order insert merely flags the list and
    the next :meth:`select_ready` sorts it; removal never breaks the
    ordering.  :meth:`select_ready` is the one issue select, with one operand
    readiness rule for normal and runahead mode alike.
    """

    def __init__(self, capacity: int = 92) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: List["DynInstr"] = []
        self._sorted = True

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator["DynInstr"]:
        return iter(self._entries)

    @property
    def is_full(self) -> bool:
        """Whether dispatch must stall for lack of issue-queue space."""
        return len(self._entries) >= self.capacity

    @property
    def free_entries(self) -> int:
        """Number of unoccupied entries."""
        return self.capacity - len(self._entries)

    @property
    def free_fraction(self) -> float:
        """Fraction of the queue that is free (Section 3.4 statistic)."""
        return self.free_entries / self.capacity

    def insert(self, instr: "DynInstr") -> None:
        """Add a dispatched instruction to the queue."""
        entries = self._entries
        if len(entries) >= self.capacity:
            raise OverflowError("issue queue overflow")
        if entries and instr.seq < entries[-1].seq:
            self._sorted = False
        entries.append(instr)

    def remove(self, instr: "DynInstr") -> None:
        """Remove an instruction (at issue or squash)."""
        self._entries.remove(instr)

    def select_ready(
        self,
        cycle: int,
        width: int,
        int_ready: List[bool],
        fp_ready: List[bool],
        max_loads: int,
        max_stores: int,
        poisoned: Set[Tuple[bool, int]],
        poison_ok: Callable[["DynInstr"], bool],
    ) -> List["DynInstr"]:
        """Pick up to ``width`` issuable instructions, oldest first.

        A source operand ``(is_fp, preg)`` is ready when its ready bit is set,
        or when it is in ``poisoned`` and ``poison_ok(instr)`` lets the
        instruction consume the invalid value (the controller's
        ``treat_poison_as_ready``); an instruction is ready when all its
        operands are.  Each entry memoises its first operand found not ready
        (``DynInstr.block_op``), and later scans re-test only that operand,
        under the same rule, until it becomes ready: one not-ready operand
        makes the instruction not ready, so the skip gives the full scan's
        answer.  Load/store port limits are enforced here.  Selected
        instructions remain in the queue; the caller removes them once it
        actually issues them.
        """
        entries = self._entries
        if not entries:
            return []
        if not self._sorted:
            entries.sort(key=_SEQ_KEY)
            self._sorted = True
        selected: List["DynInstr"] = []
        loads = 0
        stores = 0
        count = 0
        for instr in entries:
            if instr.earliest_issue_cycle > cycle:
                continue
            if instr.is_load:
                if loads >= max_loads:
                    continue
            elif instr.is_store and stores >= max_stores:
                continue
            # ``poisoned and`` first: outside runahead the set is empty, and
            # testing that is cheaper than hashing the operand to look it up.
            block = instr.block_op
            if block is not None:
                if not (
                    (fp_ready[block[1]] if block[0] else int_ready[block[1]])
                    or (poisoned and block in poisoned and poison_ok(instr))
                ):
                    continue
                instr.block_op = None
            ready = True
            for op in instr.src_ops:
                if fp_ready[op[1]] if op[0] else int_ready[op[1]]:
                    continue
                if poisoned and op in poisoned and poison_ok(instr):
                    continue
                instr.block_op = op
                ready = False
                break
            if not ready:
                continue
            selected.append(instr)
            count += 1
            if count >= width:
                break
            if instr.is_load:
                loads += 1
            elif instr.is_store:
                stores += 1
        return selected

    def squash(self, predicate: Callable[["DynInstr"], bool]) -> List["DynInstr"]:
        """Remove every entry matching ``predicate``; return the removed entries."""
        removed = [instr for instr in self._entries if predicate(instr)]
        if removed:
            self._entries = [instr for instr in self._entries if not predicate(instr)]
        return removed

    def clear(self) -> List["DynInstr"]:
        """Remove all entries (pipeline flush)."""
        removed = self._entries
        self._entries = []
        self._sorted = True
        return removed
