"""Issue queue (reservation stations).

Instructions wait here after dispatch until all their source physical
registers are ready, then issue oldest-first up to the issue width, subject to
per-cycle load/store port limits.  Capacity is 92 entries in the paper's
baseline.  Runahead-mode instructions share the queue with the stalled
window's instructions, which is why Section 3.4 reports free-entry statistics
at runahead entry.

Selection is event-driven.  An entry that select finds blocked is *parked* on
the first source operand it found not ready and is not looked at again until
that operand is *woken*: the core calls :meth:`IssueQueue.wake` wherever an
operand can turn ready (a writeback sets its ready bit, or it is poisoned in
runahead mode).  Select therefore walks only the unparked entries — the
candidates — instead of the whole window, most of which sits blocked behind a
long-latency load.
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.uarch.core import DynInstr

_SEQ_KEY = operator.attrgetter("seq")


class IssueQueue:
    """Bounded pool of not-yet-issued instructions with per-operand waiter lists.

    ``_entries`` holds every entry (occupancy counts all of them).
    ``_candidates`` holds the unparked ones, sorted by sequence number:
    dispatch almost always inserts in age order and a wake appends older
    entries, so either merely flags the list and the next
    :meth:`select_ready` sorts it.  ``_parked[is_fp][preg]`` lists the entries
    parked on that operand in parking order.  Dicts and lists only, so every
    walk is deterministic.  :meth:`select_ready` is the one issue select,
    with one operand readiness rule for normal and runahead mode alike.
    """

    __slots__ = ("capacity", "_entries", "_candidates", "_sorted", "_parked")

    def __init__(self, capacity: int = 92) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: Dict["DynInstr", None] = {}
        self._candidates: List["DynInstr"] = []
        self._sorted = True
        #: Parked entries by operand: index 0 the integer bank, 1 the fp bank.
        self._parked: Tuple[Dict[int, List["DynInstr"]], ...] = ({}, {})

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
        """Add a dispatched instruction to the queue as a candidate."""
        entries = self._entries
        if len(entries) >= self.capacity:
            raise OverflowError("issue queue overflow")
        entries[instr] = None
        candidates = self._candidates
        if candidates and instr.seq < candidates[-1].seq:
            self._sorted = False
        candidates.append(instr)

    def remove(self, instr: "DynInstr") -> None:
        """Remove a candidate that :meth:`select_ready` returned (at issue)."""
        del self._entries[instr]
        self._candidates.remove(instr)

    def wake(self, is_fp: bool, preg: int) -> None:
        """Operand ``(is_fp, preg)`` may have turned ready: unpark its waiters."""
        waiters = self._parked[is_fp].pop(preg, None)
        if waiters:
            self._candidates.extend(waiters)
            self._sorted = False

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
        operands are.  Only candidates are walked: a candidate found blocked
        is parked on its first operand found not ready, where it stays until
        :meth:`wake` names that operand — one not-ready operand makes the
        instruction not ready, so skipping it until then gives the full
        scan's answer.  The ``earliest_issue_cycle`` gate and the load/store
        port limits are enforced here.  Selected instructions remain
        candidates; the caller removes them once it actually issues them.
        """
        candidates = self._candidates
        if not self._sorted:
            candidates.sort(key=_SEQ_KEY)
            self._sorted = True
        selected: List["DynInstr"] = []
        parked_at: List[int] = []
        loads = 0
        stores = 0
        count = 0
        for position, instr in enumerate(candidates):
            if instr.earliest_issue_cycle > cycle:
                continue
            if instr.is_load:
                if loads >= max_loads:
                    continue
            elif instr.is_store and stores >= max_stores:
                continue
            for op in instr.src_ops:
                if fp_ready[op[1]] if op[0] else int_ready[op[1]]:
                    continue
                # ``poisoned and`` first: outside runahead the set is empty,
                # and testing that is cheaper than hashing the operand.
                if poisoned and op in poisoned and poison_ok(instr):
                    continue
                waiters = self._parked[op[0]]
                parked = waiters.get(op[1])
                if parked is None:
                    waiters[op[1]] = [instr]
                else:
                    parked.append(instr)
                parked_at.append(position)
                break
            else:
                selected.append(instr)
                count += 1
                if count >= width:
                    break
                if instr.is_load:
                    loads += 1
                elif instr.is_store:
                    stores += 1
        for position in reversed(parked_at):
            del candidates[position]
        return selected

    def squash(self, predicate: Callable[["DynInstr"], bool]) -> List["DynInstr"]:
        """Remove every entry matching ``predicate``, parked or not; return them."""
        entries = self._entries
        removed = [instr for instr in entries if predicate(instr)]
        if removed:
            for instr in removed:
                del entries[instr]
            self._candidates = [instr for instr in self._candidates if instr in entries]
            for bank in self._parked:
                for preg, waiters in list(bank.items()):
                    kept = [instr for instr in waiters if instr in entries]
                    if kept:
                        bank[preg] = kept
                    else:
                        del bank[preg]
        return removed

    def clear(self) -> List["DynInstr"]:
        """Remove all entries (pipeline flush)."""
        removed = list(self._entries)
        self._entries = {}
        self._candidates = []
        self._sorted = True
        self._parked = ({}, {})
        return removed
