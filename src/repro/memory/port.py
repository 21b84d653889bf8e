"""The narrow core <-> memory seam.

``OoOCore`` used to construct and own a whole memory hierarchy and call
into it freely; the multi-core work split the hierarchy into a per-core
:class:`~repro.memory.hierarchy.PrivateHierarchy` front half and a
:class:`~repro.memory.hierarchy.SharedUncore` back half.  The surface the
core is allowed to touch is pinned down here:

* :class:`MemoryPort` — the full data+instruction request surface a core
  drives (request, admission, drain, wake-up), carrying a ``core_id`` so the
  uncore can attribute shared-resource usage (L3 space, DRAM queue delay,
  bus occupancy) to the requesting core;
* :class:`InstructionPort` — the strict subset the front end needs: the
  fetch-line geometry plus ``access_instruction``.  The front end sees
  nothing else of the hierarchy.

Everything a core reads across the seam is part of these types; anything
else (MSHR internals, fill queues, prefetcher state) stays private to
``repro.memory``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Protocol

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.memory.hierarchy import AccessResult, PrivateHierarchy


class MemoryPort(Protocol):
    """What a core may ask of its memory system.

    :class:`~repro.memory.hierarchy.PrivateHierarchy` implements this
    protocol; the core holds the port and never reaches past it.
    """

    #: Identity stamped on every request, for per-core uncore attribution.
    core_id: int

    def access_data(
        self,
        addr: int,
        cycle: int,
        is_write: bool = False,
        is_prefetch: bool = False,
        pc: int = 0,
    ) -> "AccessResult":
        """Issue a data-side request for the line containing ``addr``."""
        ...

    def access_instruction(self, pc: int, cycle: int) -> "AccessResult":
        """Issue an instruction-side request for the line containing ``pc``."""
        ...

    def can_accept(self, cycle: int) -> bool:
        """Whether a new demand miss could be admitted at ``cycle``."""
        ...

    def earliest_completion(self, cycle: int) -> Optional[int]:
        """Completion cycle of the earliest outstanding fill, or ``None``.

        The core's idle-skip scheduler uses this as a wake-up candidate when
        it is blocked on memory (e.g. a committed store waiting for an MSHR
        entry to free).
        """
        ...

    def drain(self, cycle: int) -> None:
        """Settle every fill due by ``cycle`` (end-of-run statistics)."""
        ...


class InstructionPort:
    """The instruction-side slice of a :class:`MemoryPort`.

    The front end fetches along cache lines and charges I-miss penalties; it
    needs exactly the L1I geometry and ``access_instruction`` — so that is
    all it gets.  A ``__slots__`` value class: one per core, but its
    attributes are read on the per-cycle fetch path.
    """

    __slots__ = ("line_bytes", "latency", "access_instruction")

    def __init__(self, hierarchy: "PrivateHierarchy") -> None:
        config = hierarchy.config.l1i
        #: L1I line size, for the front end's same-line fetch fast path.
        self.line_bytes = config.line_bytes
        #: L1I hit latency, already charged by the fetch pipeline depth; the
        #: front end charges only the excess of a miss over this.
        self.latency = config.latency
        #: Bound method straight off the hierarchy: the port adds no
        #: indirection on the per-fetch-line access path.
        self.access_instruction = hierarchy.access_instruction
