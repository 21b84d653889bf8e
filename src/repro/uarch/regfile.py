"""Physical register file with free list and ready bits.

The core has two instances (integer and floating point), each sized per
Table 1 (168 registers).  The first 32 registers of each file are bound to the
architectural registers at reset; the remainder form the initial free list.
Runahead execution's headroom — the "51 percent of the integer registers,
59 percent of the floating-point registers are free" observation in
Section 3.4 — is a direct property of this structure's occupancy.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Set


class OutOfPhysicalRegisters(RuntimeError):
    """Raised when an allocation is attempted with an empty free list."""


class PhysicalRegisterFile:
    """A pool of physical registers with a FIFO free list and ready bits."""

    def __init__(self, num_registers: int, num_architectural: int = 32, name: str = "int") -> None:
        if num_registers < num_architectural:
            raise ValueError("need at least as many physical as architectural registers")
        self.num_registers = num_registers
        self.num_architectural = num_architectural
        self.name = name
        # Registers 0..num_architectural-1 hold architectural state at reset.
        # The free list is FIFO; a deque makes the hot allocate() O(1) where
        # list.pop(0) shifted the whole backing array.
        self._free: Deque[int] = deque(range(num_architectural, num_registers))
        self._ready = [True] * num_registers
        self._allocated: Set[int] = set(range(num_architectural))

    # -------------------------------------------------------------- occupancy

    @property
    def num_free(self) -> int:
        """Number of registers currently on the free list."""
        return len(self._free)

    @property
    def free_fraction(self) -> float:
        """Fraction of the whole register file that is free."""
        return self.num_free / self.num_registers

    def is_allocated(self, reg: int) -> bool:
        """Whether ``reg`` is currently allocated (not on the free list)."""
        return reg in self._allocated

    # ------------------------------------------------------------- allocation

    def allocate(self) -> int:
        """Take a register from the free list; it starts not-ready.

        Raises
        ------
        OutOfPhysicalRegisters
            If the free list is empty.  Callers that can stall (the rename
            stage) should check :attr:`num_free` first.
        """
        if not self._free:
            raise OutOfPhysicalRegisters(f"{self.name} register file exhausted")
        reg = self._free.popleft()
        self._allocated.add(reg)
        self._ready[reg] = False
        return reg

    def free(self, reg: int) -> None:
        """Return ``reg`` to the free list.

        Freeing a register that is already free is an error: it would let the
        same register be allocated twice simultaneously.
        """
        if reg not in self._allocated:
            raise ValueError(f"{self.name} register p{reg} is not allocated")
        self._allocated.remove(reg)
        self._ready[reg] = False
        self._free.append(reg)

    # ------------------------------------------------------------- ready bits

    def is_ready(self, reg: int) -> bool:
        """Whether the value of ``reg`` has been produced."""
        return self._ready[reg]

    def set_ready(self, reg: int) -> None:
        """Mark ``reg`` as produced (called at writeback)."""
        self._ready[reg] = True

    # ---------------------------------------------------------------- rebuild

    def rebuild(self, live_registers: Set[int]) -> None:
        """Reset the file so exactly ``live_registers`` are allocated and ready.

        Used by pipeline flushes: after a flush the only live mappings are the
        ones in the retirement RAT, every other register returns to the free
        list, and all live registers hold committed (ready) values.
        """
        for reg in live_registers:
            if not 0 <= reg < self.num_registers:
                raise ValueError(f"register p{reg} out of range for {self.name} file")
        self._allocated = set(live_registers)
        self._free = deque(
            reg for reg in range(self.num_registers) if reg not in self._allocated
        )
        self._ready = [False] * self.num_registers
        for reg in live_registers:
            self._ready[reg] = True
