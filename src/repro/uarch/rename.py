"""Register Alias Table (RAT).

The RAT maps each of the 64 architectural registers to its current physical
register.  Following Section 3.2 of the paper, every mapping is extended with
the program counter of the instruction that last produced the register
(``producer_pc``); the Stalling Slice Table uses this field to walk backwards
from a stalling load to its producers one decode at a time.

The RAT can be checkpointed and restored in O(1) entries — PRE checkpoints it
at runahead entry and restores it at exit (Sections 3.1 and 3.5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.workloads.trace import FP_REG_BASE, NUM_ARCH_REGS, is_fp_reg


class RATEntry:
    """One architectural register's current mapping.

    ``operand`` is the ``(is_fp, physical)`` tag that readers of the register
    wait on in the issue queue, built once per mapping instead of once per
    read.  A ``__slots__`` value class: rename builds one per renamed
    destination, so construction must stay cheap.  Immutable by convention,
    like the checkpoints that hold it; equality is identity.
    """

    __slots__ = ("physical", "producer_pc", "operand")

    def __init__(self, physical: int, is_fp: bool, producer_pc: Optional[int] = None) -> None:
        self.physical = physical
        self.producer_pc = producer_pc
        self.operand = (is_fp, physical)


@dataclass(frozen=True)
class RATCheckpoint:
    """An immutable snapshot of the full RAT."""

    entries: Tuple[RATEntry, ...]


class RegisterAliasTable:
    """Speculative register alias table with producer-PC extension."""

    def __init__(self, num_entries: int = NUM_ARCH_REGS) -> None:
        if num_entries <= 0:
            raise ValueError("num_entries must be positive")
        self.num_entries = num_entries
        # At reset, architectural register i maps to physical register i of its
        # bank: integer arch regs 0..31 -> int p0..p31, fp arch regs 32..63 ->
        # fp p0..p31.
        self._entries: List[RATEntry] = [
            RATEntry(self.initial_physical(arch), is_fp_reg(arch)) for arch in range(num_entries)
        ]

    @staticmethod
    def initial_physical(arch: int) -> int:
        """Physical register bound to architectural register ``arch`` at reset."""
        return arch - FP_REG_BASE if is_fp_reg(arch) else arch

    # ----------------------------------------------------------------- lookup

    def physical(self, arch: int) -> int:
        """Current physical register mapped to ``arch``."""
        return self._entries[arch].physical

    def producer_pc(self, arch: int) -> Optional[int]:
        """PC of the instruction that last renamed ``arch`` (None at reset)."""
        return self._entries[arch].producer_pc

    def entry(self, arch: int) -> RATEntry:
        """Full mapping entry for ``arch``."""
        return self._entries[arch]

    def operands(self, archs: Tuple[int, ...]) -> Tuple[Tuple[bool, int], ...]:
        """The ``(is_fp, physical)`` operands ``archs`` map to, in order.

        Rename reads one per micro-op.  Micro-ops read one or two registers,
        and those lengths skip building a comprehension.
        """
        entries = self._entries
        if len(archs) == 2:
            return (entries[archs[0]].operand, entries[archs[1]].operand)
        if len(archs) == 1:
            return (entries[archs[0]].operand,)
        return tuple([entries[arch].operand for arch in archs])

    # ----------------------------------------------------------------- update

    def rename(self, arch: int, physical: int, producer_pc: Optional[int]) -> RATEntry:
        """Point ``arch`` at ``physical``; return the previous mapping."""
        entries = self._entries
        previous = entries[arch]
        entries[arch] = RATEntry(physical, arch >= FP_REG_BASE, producer_pc)
        return previous

    # ----------------------------------------------------- checkpoint/restore

    def checkpoint(self) -> RATCheckpoint:
        """Snapshot the whole table."""
        return RATCheckpoint(entries=tuple(self._entries))

    def restore(self, checkpoint: RATCheckpoint) -> None:
        """Restore a snapshot taken with :meth:`checkpoint`."""
        if len(checkpoint.entries) != self.num_entries:
            raise ValueError("checkpoint size does not match RAT size")
        self._entries = list(checkpoint.entries)

    # ------------------------------------------------------------------ views

    def live_physicals(self, fp: bool) -> Set[int]:
        """Physical registers currently mapped by integer (or fp) architectural registers."""
        live = set()
        for arch in range(self.num_entries):
            if is_fp_reg(arch) == fp:
                live.add(self._entries[arch].physical)
        return live

    def as_dict(self) -> Dict[int, RATEntry]:
        """Return a copy of the table as a dictionary keyed by architectural register."""
        return {arch: self._entries[arch] for arch in range(self.num_entries)}


class RetirementRAT:
    """Architectural (retirement-time) register mapping.

    Updated only at commit, it always reflects the committed architectural
    state.  Pipeline flushes (runahead exit in RA/RA-buffer, for example)
    rebuild the speculative RAT and the register free lists from this table.
    """

    def __init__(self, num_entries: int = NUM_ARCH_REGS) -> None:
        self.num_entries = num_entries
        self._physical: List[int] = [
            RegisterAliasTable.initial_physical(arch) for arch in range(num_entries)
        ]

    def physical(self, arch: int) -> int:
        """Physical register holding the committed value of ``arch``."""
        return self._physical[arch]

    def commit(self, arch: int, physical: int) -> int:
        """Record that ``arch`` now commits to ``physical``; return the old mapping."""
        previous = self._physical[arch]
        self._physical[arch] = physical
        return previous

    def live_physicals(self, fp: bool) -> Set[int]:
        """Physical registers holding committed state for one register bank."""
        live = set()
        for arch in range(self.num_entries):
            if is_fp_reg(arch) == fp:
                live.add(self._physical[arch])
        return live

    def to_checkpoint(self) -> RATCheckpoint:
        """Express the retirement mapping as a RAT checkpoint (producer PCs cleared)."""
        return RATCheckpoint(
            entries=tuple(
                RATEntry(physical, is_fp_reg(arch)) for arch, physical in enumerate(self._physical)
            )
        )
