"""Re-order buffer (ROB).

A FIFO of in-flight dynamic instructions, capacity 192 in the paper's
baseline.  The defining event of this work — the *full-window stall* — is the
condition in which the ROB is full and its head is an uncompleted long-latency
load, so the ROB exposes exactly the queries the runahead controllers need:
occupancy, the head entry, and whether another dynamic instance of a given
static PC is present (used by the runahead buffer's backward data-flow walk).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Iterator, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.uarch.core import DynInstr


class ReorderBuffer:
    """Bounded FIFO of in-flight instructions in program order."""

    def __init__(self, capacity: int = 192) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: Deque["DynInstr"] = deque()

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator["DynInstr"]:
        return iter(self._entries)

    @property
    def is_full(self) -> bool:
        """Whether dispatch must stall for lack of ROB space."""
        return len(self._entries) >= self.capacity

    @property
    def is_empty(self) -> bool:
        """Whether the ROB holds no instructions."""
        return not self._entries

    def head(self) -> Optional["DynInstr"]:
        """The oldest in-flight instruction, or ``None`` when empty."""
        return self._entries[0] if self._entries else None

    def push(self, instr: "DynInstr") -> None:
        """Append an instruction at the tail (dispatch)."""
        entries = self._entries
        if len(entries) >= self.capacity:
            raise OverflowError("ROB overflow")
        entries.append(instr)

    def pop_head(self) -> "DynInstr":
        """Remove and return the head (commit or pseudo-retire)."""
        if not self._entries:
            raise IndexError("ROB underflow")
        return self._entries.popleft()

    def clear(self) -> List["DynInstr"]:
        """Discard every entry (pipeline flush); return the discarded entries."""
        discarded = list(self._entries)
        self._entries.clear()
        return discarded

    def find_other_instance(self, pc: int, exclude_seq: int) -> Optional["DynInstr"]:
        """Find the youngest entry with the given static PC other than ``exclude_seq``.

        The runahead buffer's backward data-flow walk (Section 2.3) starts
        from a second dynamic instance of the stalling load inside the window.
        """
        for instr in reversed(self._entries):
            if instr.uop.pc == pc and instr.seq != exclude_seq:
                return instr
        return None

    def entries_before(self, seq: int) -> List["DynInstr"]:
        """Entries older than ``seq``, youngest first (for backward walks)."""
        older = [instr for instr in self._entries if instr.seq < seq]
        older.sort(key=lambda instr: instr.seq, reverse=True)
        return older
