"""Micro-ops, traces and the stream protocol the simulator reads them through.

The simulator is trace driven: a trace is the *dynamic* stream of micro-ops a
program executes, in program order.  Each :class:`MicroOp` carries everything
the timing model needs — program counter, operation class, source and
destination architectural registers, the effective memory address for
loads/stores, and branch direction/target for branches.

Every stream is a :class:`TraceSource`: a reopenable iterator with a
known-or-unknown length.  :class:`Trace` is the in-memory, list-backed one;
:mod:`repro.workloads.source` holds the streaming ones (generators, recorded
trace files, windows).  The core reads any of them through one
:class:`StreamingCursor`, which retains only the micro-ops between the commit
point and the fetch point.

Register name space
-------------------
The paper's core uses a 64-entry Register Alias Table (Section 3.6), i.e. 64
architectural registers.  We split the space in two halves:

* integer architectural registers: ``0 .. 31``
* floating-point architectural registers: ``32 .. 63`` (``FP_REG_BASE`` + i)

A destination of ``None`` means the micro-op produces no register value
(stores, branches, nops).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from typing import Deque, Iterable, Iterator, List, Optional, Sequence, Tuple

#: Number of architectural registers visible to the RAT (Section 3.6: 64-entry RAT).
NUM_ARCH_REGS = 64

#: First architectural register index that names a floating-point register.
FP_REG_BASE = 32

#: Convenience alias: architectural register identifiers are plain ints.
ArchReg = int


class UopClass(enum.Enum):
    """Operation class of a micro-op.

    The class determines which functional unit executes the micro-op and its
    execution latency (see :mod:`repro.uarch.isa`), and whether it touches the
    memory hierarchy.
    """

    IALU = "ialu"
    IMUL = "imul"
    IDIV = "idiv"
    FALU = "falu"
    FMUL = "fmul"
    FDIV = "fdiv"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    NOP = "nop"

    @property
    def is_memory(self) -> bool:
        """Whether micro-ops of this class access the data memory hierarchy."""
        return self in (UopClass.LOAD, UopClass.STORE)

    @property
    def is_fp(self) -> bool:
        """Whether micro-ops of this class execute on floating-point units."""
        return self in (UopClass.FALU, UopClass.FMUL, UopClass.FDIV)


def is_fp_reg(reg: ArchReg) -> bool:
    """Return True if ``reg`` names a floating-point architectural register."""
    return reg >= FP_REG_BASE


class MicroOp:
    """A single dynamic micro-op.

    A ``__slots__`` value class rather than a dataclass: the simulator
    constructs one per dynamic micro-op and reads its fields in every
    pipeline stage, so construction must not pay ``object.__setattr__``
    (the frozen-dataclass tax) and field reads must not pay property
    dispatch.  ``is_load``/``is_store``/``is_branch``/``is_memory`` are
    precomputed plain attributes for the same reason.  Instances are
    immutable by convention — nothing in the simulator mutates one after
    construction.

    Attributes
    ----------
    pc:
        Program counter (instruction address) of the micro-op.  Static
        instructions that execute repeatedly (loops) share the same ``pc``;
        the Stalling Slice Table is indexed by this field.
    uop_class:
        Operation class; see :class:`UopClass`.
    srcs:
        Architectural source registers read by the micro-op.
    dst:
        Architectural destination register written by the micro-op, or
        ``None`` for stores, branches and nops.
    mem_addr:
        Effective byte address for loads/stores, ``None`` otherwise.
    mem_size:
        Access size in bytes for loads/stores.
    branch_taken:
        For branches, whether the branch is taken in this dynamic instance.
    branch_target:
        For branches, the target program counter.
    """

    __slots__ = (
        "pc",
        "uop_class",
        "srcs",
        "dst",
        "mem_addr",
        "mem_size",
        "branch_taken",
        "branch_target",
        "is_load",
        "is_store",
        "is_branch",
        "is_memory",
    )

    def __init__(
        self,
        pc: int,
        uop_class: UopClass,
        srcs: Tuple[ArchReg, ...] = (),
        dst: Optional[ArchReg] = None,
        mem_addr: Optional[int] = None,
        mem_size: int = 8,
        branch_taken: bool = False,
        branch_target: Optional[int] = None,
    ) -> None:
        is_load = uop_class is UopClass.LOAD
        is_store = uop_class is UopClass.STORE
        is_memory = is_load or is_store
        is_branch = uop_class is UopClass.BRANCH
        if is_memory:
            if mem_addr is None:
                raise ValueError(
                    f"{uop_class.value} micro-op at pc={pc:#x} requires mem_addr"
                )
        elif mem_addr is not None:
            raise ValueError(
                f"{uop_class.value} micro-op at pc={pc:#x} must not carry mem_addr"
            )
        if dst is not None:
            if is_store:
                raise ValueError("store micro-ops do not write a destination register")
            if is_branch:
                raise ValueError("branch micro-ops do not write a destination register")
            if not 0 <= dst < NUM_ARCH_REGS:
                raise ValueError(f"destination register {dst} out of range")
        for reg in srcs:
            if not 0 <= reg < NUM_ARCH_REGS:
                raise ValueError(f"source register {reg} out of range [0, {NUM_ARCH_REGS})")
        if mem_size <= 0:
            raise ValueError("mem_size must be positive")
        self.pc = pc
        self.uop_class = uop_class
        self.srcs = srcs
        self.dst = dst
        self.mem_addr = mem_addr
        self.mem_size = mem_size
        self.branch_taken = branch_taken
        self.branch_target = branch_target
        self.is_load = is_load
        self.is_store = is_store
        self.is_branch = is_branch
        self.is_memory = is_memory

    def _key(self) -> Tuple:
        return (
            self.pc,
            self.uop_class,
            self.srcs,
            self.dst,
            self.mem_addr,
            self.mem_size,
            self.branch_taken,
            self.branch_target,
        )

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if not isinstance(other, MicroOp):
            return NotImplemented
        return self._key() == other._key()

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MicroOp(pc={self.pc:#x}, uop_class={self.uop_class!r}, "
            f"srcs={self.srcs!r}, dst={self.dst!r}, mem_addr={self.mem_addr!r}, "
            f"mem_size={self.mem_size!r}, branch_taken={self.branch_taken!r}, "
            f"branch_target={self.branch_target!r})"
        )

    @property
    def writes_fp(self) -> bool:
        """True when the destination is a floating-point register."""
        return self.dst is not None and is_fp_reg(self.dst)

    @property
    def writes_int(self) -> bool:
        """True when the destination is an integer register."""
        return self.dst is not None and not is_fp_reg(self.dst)


@dataclass
class TraceStats:
    """Static summary of a trace's composition."""

    num_uops: int = 0
    num_loads: int = 0
    num_stores: int = 0
    num_branches: int = 0
    num_int_ops: int = 0
    num_fp_ops: int = 0
    unique_pcs: int = 0
    unique_load_pcs: int = 0
    footprint_bytes: int = 0

    @property
    def load_fraction(self) -> float:
        """Fraction of micro-ops that are loads."""
        return self.num_loads / self.num_uops if self.num_uops else 0.0

    @property
    def memory_fraction(self) -> float:
        """Fraction of micro-ops that are loads or stores."""
        if not self.num_uops:
            return 0.0
        return (self.num_loads + self.num_stores) / self.num_uops


def compute_trace_stats(uops: Iterable[MicroOp]) -> TraceStats:
    """Composition summary of any micro-op stream, in one pass.

    The rule set behind :meth:`TraceSource.stats`, which every trace, in
    memory or streamed, reports through.
    """
    stats = TraceStats()
    pcs = set()
    load_pcs = set()
    lines = set()
    for uop in uops:
        stats.num_uops += 1
        pcs.add(uop.pc)
        if uop.is_load:
            stats.num_loads += 1
            load_pcs.add(uop.pc)
        elif uop.is_store:
            stats.num_stores += 1
        elif uop.is_branch:
            stats.num_branches += 1
        elif uop.uop_class.is_fp:
            stats.num_fp_ops += 1
        elif uop.uop_class is not UopClass.NOP:
            stats.num_int_ops += 1
        if uop.mem_addr is not None:
            lines.add(uop.mem_addr // 64)
    stats.unique_pcs = len(pcs)
    stats.unique_load_pcs = len(load_pcs)
    stats.footprint_bytes = len(lines) * 64
    return stats


class TraceSource:
    """A reopenable stream of micro-ops.

    Subclasses implement :meth:`open` (a *fresh* iterator over the full
    stream — calling it again restarts from the beginning, which is how one
    source drives several variant runs) and may override :attr:`length` when
    the micro-op count is known up front.  ``name`` identifies the workload in
    experiment reports.
    """

    name: str = "anonymous"

    def open(self) -> Iterator[MicroOp]:
        """Return a fresh iterator over the full micro-op stream."""
        raise NotImplementedError

    def open_at(self, start: int) -> Iterator[MicroOp]:
        """A fresh iterator positioned at micro-op index ``start``.

        The default generates and discards the prefix; sources with cheaper
        positioning (in-memory slicing, record-level skipping in trace files)
        override this — it is the hot path of sharded replay, where every
        shard's prefix is skipped, not simulated.
        """
        iterator = self.open()
        for _ in range(start):
            try:
                next(iterator)
            except StopIteration:
                break
        return iterator

    def __iter__(self) -> Iterator[MicroOp]:
        return self.open()

    @property
    def length(self) -> Optional[int]:
        """Number of micro-ops in the stream, or ``None`` when unknown."""
        return None

    def cursor(self) -> "StreamingCursor":
        """A windowed random-access reader over this source (one simulation's view)."""
        return StreamingCursor(self)

    def materialize(self) -> "Trace":
        """Fully read the stream into an in-memory :class:`Trace`."""
        return Trace(self.open(), name=self.name)

    def stats(self) -> TraceStats:
        """Composition summary of the stream, in one pass over a fresh iterator."""
        return compute_trace_stats(self.open())

    def __repr__(self) -> str:
        length = self.length
        shown = length if length is not None else "?"
        return f"{type(self).__name__}(name={self.name!r}, uops={shown})"


class StreamingCursor:
    """Bounded-window random access over a :class:`TraceSource`.

    The simulator fetches mostly sequentially but must re-fetch after a
    pipeline flush (runahead exit restarts at the stalling load).  The cursor
    buffers every micro-op between a *trim floor* (the oldest index that can
    still be re-fetched: the commit point, advanced via :meth:`trim`) and the
    furthest index read so far, so rewinds inside that window are exact while
    peak memory stays proportional to the in-flight window.
    """

    def __init__(self, source: TraceSource) -> None:
        self.source = source
        self._iter = source.open()
        self._buffer: Deque[MicroOp] = deque()
        self._base = 0
        self._next = 0
        self._total: Optional[int] = None
        #: High-water mark of buffered micro-ops (exposed for memory tests).
        self.peak_buffered = 0

    @property
    def known_length(self) -> Optional[int]:
        """Total micro-op count, known once the underlying stream is exhausted."""
        if self._total is not None:
            return self._total
        return self.source.length

    def _fill_to(self, index: int) -> None:
        while self._next <= index and self._total is None:
            try:
                uop = next(self._iter)
            except StopIteration:
                self._total = self._next
                return
            self._buffer.append(uop)
            self._next += 1
            if len(self._buffer) > self.peak_buffered:
                self.peak_buffered = len(self._buffer)

    def has(self, index: int) -> bool:
        """Whether a micro-op exists at ``index`` (may read ahead to find out)."""
        self._fill_to(index)
        return index < self._next

    def fetch(self, index: int) -> Optional[MicroOp]:
        """The micro-op at ``index``, or ``None`` past the end of the stream.

        Equivalent to ``has(index)`` followed by ``get(index)`` in one call —
        the front-end's fetch loop runs this once per micro-op, so collapsing
        the pair halves the per-uop cursor overhead.  Raises
        :class:`IndexError` below the trim floor (the core never rewinds past
        the commit point); only a re-read of buffered micro-ops checks it.
        """
        if index >= self._next:
            self._fill_to(index)
            if index >= self._next:
                return None
        elif index < self._base:
            raise IndexError(
                f"trace index {index} was trimmed (retained window starts at {self._base}); "
                "the core only rewinds to uncommitted micro-ops"
            )
        return self._buffer[index - self._base]

    def get(self, index: int) -> MicroOp:
        """The micro-op at ``index``; raises if trimmed away or past the end."""
        uop = self.fetch(index)
        if uop is None:
            raise IndexError(f"trace index {index} is past the end of {self.source!r}")
        return uop

    def trim(self, floor: int) -> None:
        """Drop retained micro-ops below ``floor`` (the commit point)."""
        buffer = self._buffer
        base = self._base
        while base < floor and buffer:
            buffer.popleft()
            base += 1
        self._base = base


class Trace(TraceSource):
    """An in-memory micro-op stream: the list-backed :class:`TraceSource`.

    A trace behaves like an immutable sequence of :class:`MicroOp` objects
    (length, indexing, slicing) and carries a human-readable name used in
    experiment reports.
    """

    def __init__(self, uops: Iterable[MicroOp], name: str = "anonymous") -> None:
        self._uops: List[MicroOp] = list(uops)
        self.name = name

    def __len__(self) -> int:
        return len(self._uops)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Trace(self._uops[index], name=f"{self.name}[{index.start}:{index.stop}]")
        return self._uops[index]

    def open(self) -> Iterator[MicroOp]:
        return iter(self._uops)

    def open_at(self, start: int) -> Iterator[MicroOp]:
        return islice(self._uops, start, None)

    @property
    def length(self) -> int:
        return len(self._uops)

    def materialize(self) -> "Trace":
        return self

    @property
    def uops(self) -> Sequence[MicroOp]:
        """The underlying micro-op sequence (read-only view)."""
        return tuple(self._uops)

    def concat(self, other: "Trace", name: Optional[str] = None) -> "Trace":
        """Return a new trace that is this trace followed by ``other``."""
        return Trace(
            list(self._uops) + list(other._uops),
            name=name or f"{self.name}+{other.name}",
        )

    def repeat(self, times: int, name: Optional[str] = None) -> "Trace":
        """Return a new trace with this trace's micro-ops repeated ``times`` times."""
        if times < 0:
            raise ValueError("times must be non-negative")
        return Trace(list(self._uops) * times, name=name or f"{self.name}x{times}")

    def load_addresses(self) -> List[int]:
        """Return the effective addresses of all loads, in program order."""
        return [uop.mem_addr for uop in self._uops if uop.is_load]

    def pcs_of_class(self, uop_class: UopClass) -> List[int]:
        """Return the distinct PCs of micro-ops with the given class, in first-seen order."""
        seen = {}
        for uop in self._uops:
            if uop.uop_class is uop_class and uop.pc not in seen:
                seen[uop.pc] = None
        return list(seen)


# ------------------------------------------------------- micro-op constructors
#
# Free functions shared by :class:`TraceBuilder` (eager trace construction) and
# the streaming workload generators (see :mod:`repro.workloads.generators`),
# so both paths build byte-for-byte identical micro-ops.


def uop_ialu(pc: int, dst: ArchReg, srcs: Sequence[ArchReg] = ()) -> MicroOp:
    """Construct an integer ALU micro-op."""
    return MicroOp(pc=pc, uop_class=UopClass.IALU, srcs=tuple(srcs), dst=dst)


def uop_falu(pc: int, dst: ArchReg, srcs: Sequence[ArchReg] = ()) -> MicroOp:
    """Construct a floating-point ALU micro-op."""
    return MicroOp(pc=pc, uop_class=UopClass.FALU, srcs=tuple(srcs), dst=dst)


def uop_load(pc: int, dst: ArchReg, addr: int, srcs: Sequence[ArchReg] = ()) -> MicroOp:
    """Construct a load micro-op reading ``addr``."""
    return MicroOp(pc=pc, uop_class=UopClass.LOAD, srcs=tuple(srcs), dst=dst, mem_addr=addr)


def uop_store(pc: int, addr: int, srcs: Sequence[ArchReg] = ()) -> MicroOp:
    """Construct a store micro-op writing ``addr``."""
    return MicroOp(pc=pc, uop_class=UopClass.STORE, srcs=tuple(srcs), mem_addr=addr)


def uop_branch(pc: int, taken: bool, target: int, srcs: Sequence[ArchReg] = ()) -> MicroOp:
    """Construct a conditional branch micro-op."""
    return MicroOp(
        pc=pc,
        uop_class=UopClass.BRANCH,
        srcs=tuple(srcs),
        branch_taken=taken,
        branch_target=target,
    )


class PCAllocator:
    """Sequential static-program-counter allocator (4 bytes per instruction).

    Factored out of :class:`TraceBuilder` so the streaming generators can lay
    out static code identically to the eager builder.
    """

    __slots__ = ("_next_pc",)

    def __init__(self, base_pc: int = 0x400000) -> None:
        self._next_pc = base_pc

    def new_pc(self) -> int:
        """Allocate a fresh static program counter."""
        pc = self._next_pc
        self._next_pc += 4
        return pc


@dataclass
class TraceBuilder:
    """Helper for constructing traces programmatically.

    The builder assigns program counters automatically (4 bytes per static
    instruction) and validates register usage.  Workload generators use it to
    express loop bodies naturally: define the static PCs once and emit dynamic
    instances per iteration.
    """

    name: str = "built"
    base_pc: int = 0x400000
    _uops: List[MicroOp] = field(default_factory=list)
    _next_pc: int = field(default=-1)

    def __post_init__(self) -> None:
        if self._next_pc < 0:
            self._next_pc = self.base_pc

    def new_pc(self) -> int:
        """Allocate a fresh static program counter."""
        pc = self._next_pc
        self._next_pc += 4
        return pc

    def emit(self, uop: MicroOp) -> MicroOp:
        """Append a micro-op to the trace being built."""
        self._uops.append(uop)
        return uop

    def ialu(self, pc: int, dst: ArchReg, srcs: Sequence[ArchReg] = ()) -> MicroOp:
        """Emit an integer ALU micro-op."""
        return self.emit(uop_ialu(pc, dst, srcs))

    def falu(self, pc: int, dst: ArchReg, srcs: Sequence[ArchReg] = ()) -> MicroOp:
        """Emit a floating-point ALU micro-op."""
        return self.emit(uop_falu(pc, dst, srcs))

    def load(self, pc: int, dst: ArchReg, addr: int, srcs: Sequence[ArchReg] = ()) -> MicroOp:
        """Emit a load micro-op reading ``addr``."""
        return self.emit(uop_load(pc, dst, addr, srcs))

    def store(self, pc: int, addr: int, srcs: Sequence[ArchReg] = ()) -> MicroOp:
        """Emit a store micro-op writing ``addr``."""
        return self.emit(uop_store(pc, addr, srcs))

    def branch(self, pc: int, taken: bool, target: int, srcs: Sequence[ArchReg] = ()) -> MicroOp:
        """Emit a conditional branch micro-op."""
        return self.emit(uop_branch(pc, taken, target, srcs))

    def build(self) -> Trace:
        """Finalize and return the built trace."""
        return Trace(self._uops, name=self.name)
