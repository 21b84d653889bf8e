"""Synthetic workload generators.

Each generator produces a deterministic dynamic micro-op stream whose
*memory behaviour* mirrors one of the behaviours the paper's evaluation relies
on.  The discriminating properties are:

* how many distinct *stalling slices* (backward dependency chains leading to
  long-latency loads) the workload has,
* whether the address of a future long-latency load is computable without the
  value of the current long-latency load (i.e. how much memory-level
  parallelism runahead execution can expose),
* how densely long-latency misses occur in the dynamic instruction stream
  (which decides how deep runahead execution must run to find them), and
* the ratio of compute to memory micro-ops.

All generators take a ``seed`` and are fully deterministic.

Streaming vs. eager construction
--------------------------------
Every generator exists in two forms that produce byte-for-byte identical
micro-op sequences:

* the public function (e.g. :func:`strided_stream`) eagerly materialises a
  :class:`~repro.workloads.trace.Trace`, exactly as before;
* its ``.stream`` attribute (e.g. ``strided_stream.stream``) is a generator
  function yielding micro-ops on demand — the factory a
  :class:`~repro.workloads.source.GeneratorSource` regenerates the stream
  from, which keeps peak memory independent of trace length.

Register conventions
--------------------
Integer registers ``0..31`` hold addresses, indices and integer temporaries;
floating-point registers ``32..63`` hold data values in FP kernels.  A few
registers are reserved by convention inside each generator and documented in
its docstring.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator

from repro.workloads.source import GeneratorSource
from repro.workloads.trace import (
    FP_REG_BASE,
    MicroOp,
    PCAllocator,
    Trace,
    TraceSource,
    UopClass,
    uop_branch,
    uop_falu,
    uop_ialu,
    uop_load,
    uop_store,
)

#: Cache line size assumed by the generators when spreading data structures.
CACHE_LINE_BYTES = 64

#: Default data-segment base address used by all generators.
DATA_BASE = 0x10_000_000


@dataclass
class WorkloadSpec:
    """A named, parameterised workload.

    Attributes
    ----------
    name:
        Identifier used in reports.
    generator:
        Callable returning a :class:`Trace` when invoked with the stored
        keyword parameters.  When the callable carries a ``stream`` attribute
        (all generators in this module do), :meth:`source` builds a lazy
        :class:`~repro.workloads.source.GeneratorSource` from it instead of
        materialising the trace.
    params:
        Keyword arguments passed to ``generator``.
    description:
        Human-readable description of the memory behaviour.
    """

    name: str
    generator: Callable[..., Trace]
    params: Dict[str, object] = field(default_factory=dict)
    description: str = ""

    def build(self, **overrides: object) -> Trace:
        """Instantiate the workload, optionally overriding stored parameters."""
        kwargs = dict(self.params)
        kwargs.update(overrides)
        trace = self.generator(**kwargs)
        trace.name = self.name
        return trace

    def source(self, **overrides: object) -> TraceSource:
        """A lazy :class:`~repro.workloads.trace.TraceSource` for this workload.

        Streams micro-ops on demand when the generator supports it, and
        returns the eager trace (itself a source) otherwise.  Either way the
        stream is identical to :meth:`build`'s.
        """
        stream = getattr(self.generator, "stream", None)
        if stream is None:
            return self.build(**overrides)
        kwargs = dict(self.params)
        kwargs.update(overrides)
        return GeneratorSource(stream, kwargs, name=self.name)


def _eager(stream_func: Callable[..., Iterator[MicroOp]], name: str) -> Callable[..., Trace]:
    """Wrap a streaming generator function into the eager Trace-building API."""

    def build(**kwargs: object) -> Trace:
        return Trace(stream_func(**kwargs), name=name)

    build.__name__ = name
    build.__qualname__ = name
    build.__doc__ = stream_func.__doc__
    # The stream twin takes the public name too, so a GeneratorSource built
    # from it defaults to "strided_stream", not "_stream_strided_stream".
    stream_func.__name__ = name
    stream_func.__qualname__ = name
    build.stream = stream_func  # type: ignore[attr-defined]
    return build


def _stream_linked_list_chase(
    num_uops: int = 20_000,
    num_nodes: int = 64_000,
    work_per_node: int = 6,
    seed: int = 1,
    base: int = DATA_BASE,
) -> Iterator[MicroOp]:
    """Serial pointer chasing (mcf/omnetpp-like).

    A single static load walks a randomly permuted linked list whose footprint
    (``num_nodes`` cache lines) far exceeds the last-level cache, so nearly
    every pointer dereference is a long-latency miss.  The address of the next
    load is the *value* of the current load, so runahead execution cannot
    compute future addresses once the stalling load's value is unavailable:
    this workload bounds the benefit of all runahead techniques from below.

    Registers: r1 holds the current node pointer, r2/r3 hold integer
    temporaries, r4 a loop counter.
    """
    rng = random.Random(seed)
    order = list(range(num_nodes))
    rng.shuffle(order)
    node_addr = [base + node * CACHE_LINE_BYTES for node in order]

    pcs = PCAllocator()
    pc_load = pcs.new_pc()
    pc_work = [pcs.new_pc() for _ in range(work_per_node)]
    pc_branch = pcs.new_pc()

    emitted = 0
    position = 0
    while emitted < num_uops:
        addr = node_addr[position % num_nodes]
        # r1 <- [r1] : the chase load; the next address depends on the loaded value.
        yield uop_load(pc_load, dst=1, addr=addr, srcs=(1,))
        emitted += 1
        for i, pc in enumerate(pc_work):
            if i < 2:
                # Node processing that needs the loaded pointer.
                yield uop_ialu(pc, dst=2 + i, srcs=(1, 2 + i))
            elif i % 2 == 0:
                # Bookkeeping independent of the outstanding miss (reads loop
                # constants only, so it never waits and never clogs the IQ).
                yield uop_ialu(pc, dst=5 + (i % 3), srcs=(4, 8))
            else:
                # Independent floating-point work; mixing destination banks
                # keeps either register file from filling before the ROB does.
                yield uop_falu(pc, dst=FP_REG_BASE + 8 + (i % 2), srcs=(FP_REG_BASE + 14, FP_REG_BASE + 15))
            emitted += 1
        yield uop_branch(pc_branch, taken=True, target=pc_load, srcs=(4,))
        emitted += 1
        position += 1


linked_list_chase = _eager(_stream_linked_list_chase, "linked_list_chase")


def _stream_strided_stream(
    num_uops: int = 20_000,
    element_bytes: int = 8,
    work_per_element: int = 6,
    region_bytes: int = 16 * 1024 * 1024,
    seed: int = 1,
    base: int = DATA_BASE,
) -> Iterator[MicroOp]:
    """Streaming over a large array with a single dominant load slice (libquantum/lbm-like).

    One static load walks a multi-megabyte array of ``element_bytes``-sized
    elements.  Its address is produced by a short induction-variable chain
    (one add), so runahead execution can race arbitrarily far ahead and
    prefetch every future cache line; a single-slice technique such as the
    runahead buffer captures all of the available memory-level parallelism,
    which is why the paper calls out libquantum as the case where RA-buffer
    matches or beats PRE.  With 8-byte elements only one load in eight touches
    a new line, so long-latency misses are spread through the instruction
    stream rather than back to back.

    Registers: r1 element address (induction variable), r5/r6 integer
    temporaries, fp32+ data accumulators.
    """
    del seed  # fully regular; kept for signature uniformity
    pcs = PCAllocator()
    pc_addr = pcs.new_pc()
    pc_load = pcs.new_pc()
    pc_work = [pcs.new_pc() for _ in range(work_per_element)]
    pc_branch = pcs.new_pc()

    emitted = 0
    element = 0
    num_elements = max(1, region_bytes // max(element_bytes, 1))
    while emitted < num_uops:
        addr = base + (element % num_elements) * element_bytes
        # r1 <- r1 + element_bytes : induction variable update (the slice root).
        yield uop_ialu(pc_addr, dst=1, srcs=(1,))
        emitted += 1
        # fp0 <- [r1] : the streaming load; depends only on the induction chain.
        yield uop_load(pc_load, dst=FP_REG_BASE + 0, addr=addr, srcs=(1,))
        emitted += 1
        for i, pc in enumerate(pc_work):
            if i == 0:
                # The single consumer of the streamed element.
                yield uop_falu(pc, dst=FP_REG_BASE + 1, srcs=(FP_REG_BASE + 0, FP_REG_BASE + 1))
            elif i % 2 == 0:
                # Independent work that reads loop constants only: it neither
                # waits for the miss nor forms a serial chain across iterations.
                yield uop_falu(
                    pc,
                    dst=FP_REG_BASE + 2 + (i % 3),
                    srcs=(FP_REG_BASE + 5, FP_REG_BASE + 6),
                )
            else:
                # Integer bookkeeping; mixing destination banks keeps either
                # register file from filling before the ROB does.
                yield uop_ialu(pc, dst=6 + (i % 3), srcs=(5, 8))
            emitted += 1
        yield uop_branch(pc_branch, taken=True, target=pc_addr, srcs=(5,))
        emitted += 1
        element += 1


strided_stream = _eager(_stream_strided_stream, "strided_stream")


def _stream_multi_slice_kernel(
    num_uops: int = 20_000,
    num_slices: int = 4,
    work_per_iteration: int = 12,
    region_bytes: int = 16 * 1024 * 1024,
    element_bytes: int = 16,
    slice_depth: int = 2,
    seed: int = 2,
    base: int = DATA_BASE,
) -> Iterator[MicroOp]:
    """Several independent address-generation chains per loop iteration (milc/soplex-like).

    Each loop iteration issues ``num_slices`` loads from *different* static PCs
    whose addresses are produced by independent short integer chains
    (``slice_depth`` address-generation ops each), each walking its own region
    with ``element_bytes``-sized elements.  Multiple distinct stalling slices
    lead to full-window stalls, which is exactly the case where the runahead
    buffer's single-slice replay loses coverage and PRE's Stalling Slice Table
    wins (Section 5.1).  Small elements keep the long-latency misses spread
    out (one new line every ``line/element_bytes`` iterations per slice).

    Registers: r1..r``num_slices`` hold per-slice induction variables,
    r20/r21 integer temporaries, fp regs hold loaded data.
    """
    rng = random.Random(seed)
    num_slices = max(1, min(num_slices, 12))
    pcs = PCAllocator()

    pc_addr = [[pcs.new_pc() for _ in range(slice_depth)] for _ in range(num_slices)]
    pc_load = [pcs.new_pc() for _ in range(num_slices)]
    pc_work = [pcs.new_pc() for _ in range(work_per_iteration)]
    pc_branch = pcs.new_pc()

    slice_region = max(CACHE_LINE_BYTES, region_bytes // num_slices)
    # Stagger the per-slice regions by a prime number of pages so that the
    # slices do not alias onto the same DRAM bank.
    offsets = [s * slice_region + s * 7 * 4096 for s in range(num_slices)]
    counters = [rng.randrange(0, 64) for _ in range(num_slices)]
    num_elements = max(1, slice_region // element_bytes)

    emitted = 0
    while emitted < num_uops:
        for s in range(num_slices):
            reg = 1 + s
            # Address-generation chain for slice s (its stalling slice).
            for d in range(slice_depth):
                yield uop_ialu(pc_addr[s][d], dst=reg, srcs=(reg,))
                emitted += 1
            addr = base + offsets[s] + (counters[s] % num_elements) * element_bytes
            yield uop_load(pc_load[s], dst=FP_REG_BASE + s, addr=addr, srcs=(reg,))
            emitted += 1
            counters[s] += 1
        for i, pc in enumerate(pc_work):
            if i < num_slices:
                # One reduction per slice consumes that slice's loaded value.
                yield uop_falu(
                    pc,
                    dst=FP_REG_BASE + 8 + (i % 2),
                    srcs=(FP_REG_BASE + i, FP_REG_BASE + 8 + (i % 2)),
                )
            elif i % 2 == 0:
                # Independent work on loop constants, not blocked by misses.
                yield uop_falu(
                    pc,
                    dst=FP_REG_BASE + 10 + (i % 3),
                    srcs=(FP_REG_BASE + 14, FP_REG_BASE + 15),
                )
            else:
                # Integer bookkeeping balances destination-register banks.
                yield uop_ialu(pc, dst=21 + (i % 3), srcs=(20, 25))
            emitted += 1
        yield uop_branch(pc_branch, taken=True, target=pc_addr[0][0], srcs=(20,))
        emitted += 1


multi_slice_kernel = _eager(_stream_multi_slice_kernel, "multi_slice_kernel")


def _stream_random_access_kernel(
    num_uops: int = 20_000,
    index_region_bytes: int = 16 * 1024,
    data_region_bytes: int = 32 * 1024 * 1024,
    hot_region_bytes: int = 16 * 1024,
    miss_fraction: float = 0.3,
    work_per_iteration: int = 8,
    seed: int = 3,
    base: int = DATA_BASE,
) -> Iterator[MicroOp]:
    """Indexed gather: a cached index load feeds a sparse data load (bwaves/cactus-like).

    Each iteration loads an index from a small (cache-resident) index array and
    uses it to address a data load.  A fraction ``miss_fraction`` of the data
    loads fall in a region much larger than the LLC (long-latency misses); the
    rest hit a small hot region.  The data load's address depends on the
    *index load's value*, not on the data load's own previous value, so
    runahead execution can prefetch future data loads as long as the index
    loads hit in the cache — a behaviour in between pure pointer chasing and
    pure streaming.

    Registers: r1 index-array pointer, r2 loaded index, r3 data address,
    fp regs hold data.
    """
    rng = random.Random(seed)
    pcs = PCAllocator()
    pc_idx_addr = pcs.new_pc()
    pc_idx_load = pcs.new_pc()
    pc_data_addr = pcs.new_pc()
    pc_data_load = pcs.new_pc()
    pc_work = [pcs.new_pc() for _ in range(work_per_iteration)]
    pc_branch = pcs.new_pc()

    index_base = base
    hot_base = base + index_region_bytes + CACHE_LINE_BYTES
    cold_base = hot_base + hot_region_bytes + CACHE_LINE_BYTES
    num_index_lines = max(1, index_region_bytes // CACHE_LINE_BYTES)
    num_hot_lines = max(1, hot_region_bytes // CACHE_LINE_BYTES)
    num_cold_lines = max(1, data_region_bytes // CACHE_LINE_BYTES)

    emitted = 0
    iteration = 0
    while emitted < num_uops:
        index_addr = index_base + (iteration % num_index_lines) * CACHE_LINE_BYTES
        if rng.random() < miss_fraction:
            data_addr = cold_base + rng.randrange(num_cold_lines) * CACHE_LINE_BYTES
        else:
            data_addr = hot_base + rng.randrange(num_hot_lines) * CACHE_LINE_BYTES
        yield uop_ialu(pc_idx_addr, dst=1, srcs=(1,))
        yield uop_load(pc_idx_load, dst=2, addr=index_addr, srcs=(1,))
        yield uop_ialu(pc_data_addr, dst=3, srcs=(2,))
        yield uop_load(pc_data_load, dst=FP_REG_BASE + 0, addr=data_addr, srcs=(3,))
        emitted += 4
        for i, pc in enumerate(pc_work):
            if i == 0:
                yield uop_falu(pc, dst=FP_REG_BASE + 1, srcs=(FP_REG_BASE + 0, FP_REG_BASE + 1))
            elif i % 2 == 0:
                yield uop_falu(
                    pc,
                    dst=FP_REG_BASE + 2 + (i % 3),
                    srcs=(FP_REG_BASE + 6, FP_REG_BASE + 7),
                )
            else:
                # Integer bookkeeping balances destination-register banks.
                yield uop_ialu(pc, dst=6 + (i % 3), srcs=(5, 9))
            emitted += 1
        yield uop_branch(pc_branch, taken=True, target=pc_idx_addr, srcs=(4,))
        emitted += 1
        iteration += 1


random_access_kernel = _eager(_stream_random_access_kernel, "random_access_kernel")


def _stream_mixed_compute_memory(
    num_uops: int = 20_000,
    memory_interval: int = 12,
    region_bytes: int = 8 * 1024 * 1024,
    element_bytes: int = 8,
    num_streams: int = 2,
    store_fraction: float = 0.25,
    seed: int = 4,
    base: int = DATA_BASE,
) -> Iterator[MicroOp]:
    """Compute-heavy loop with periodic long-latency loads and stores (sphinx/zeusmp-like).

    A block of FP compute separates memory accesses, each stream walks a large
    array in ``element_bytes`` steps (so only a fraction of the loads cross
    into a new line), and a fraction of iterations end with a store.  This
    exercises the commit path, the store queue and write-back traffic, and
    produces full-window stalls that are further apart than in the streaming
    kernels.

    Registers: r1..r``num_streams`` stream pointers, fp regs data.
    """
    rng = random.Random(seed)
    num_streams = max(1, min(num_streams, 4))
    pcs = PCAllocator()

    pc_addr = [pcs.new_pc() for _ in range(num_streams)]
    pc_load = [pcs.new_pc() for _ in range(num_streams)]
    pc_store = pcs.new_pc()
    pc_compute = [pcs.new_pc() for _ in range(memory_interval)]
    pc_branch = pcs.new_pc()

    counters = [0] * num_streams
    stream_region = max(CACHE_LINE_BYTES, region_bytes // num_streams)
    num_elements = max(1, stream_region // element_bytes)

    emitted = 0
    while emitted < num_uops:
        for s in range(num_streams):
            yield uop_ialu(pc_addr[s], dst=1 + s, srcs=(1 + s,))
            emitted += 1
            # The extra prime page offset keeps streams on distinct DRAM banks.
            addr = (
                base
                + s * stream_region
                + s * 5 * 4096
                + (counters[s] % num_elements) * element_bytes
            )
            yield uop_load(pc_load[s], dst=FP_REG_BASE + s, addr=addr, srcs=(1 + s,))
            emitted += 1
            counters[s] += 1
        for i, pc in enumerate(pc_compute):
            if i < num_streams:
                # One reduction per stream consumes that stream's loaded value.
                yield uop_falu(
                    pc,
                    dst=FP_REG_BASE + 4 + (i % 2),
                    srcs=(FP_REG_BASE + i, FP_REG_BASE + 4 + (i % 2)),
                )
            elif i % 2 == 0:
                # Independent compute on loop constants that can complete under
                # an outstanding miss.
                yield uop_falu(
                    pc,
                    dst=FP_REG_BASE + 8 + (i % 4),
                    srcs=(FP_REG_BASE + 13, FP_REG_BASE + 14),
                )
            else:
                # Integer bookkeeping balances destination-register banks.
                yield uop_ialu(pc, dst=11 + (i % 4), srcs=(10, 16))
            emitted += 1
        if rng.random() < store_fraction:
            store_addr = base + (counters[0] % num_elements) * element_bytes
            yield uop_store(pc_store, addr=store_addr, srcs=(1, FP_REG_BASE + 4))
            emitted += 1
        yield uop_branch(pc_branch, taken=True, target=pc_addr[0], srcs=(10,))
        emitted += 1


mixed_compute_memory = _eager(_stream_mixed_compute_memory, "mixed_compute_memory")


def _stream_compute_kernel(
    num_uops: int = 10_000,
    chain_length: int = 4,
    seed: int = 5,
) -> Iterator[MicroOp]:
    """Pure compute loop with no memory accesses.

    Used as a control: no full-window stalls occur, so every runahead variant
    must behave identically to the baseline out-of-order core.
    """
    del seed
    pcs = PCAllocator()
    pc_ops = [pcs.new_pc() for _ in range(chain_length)]
    pc_mul = pcs.new_pc()
    pc_branch = pcs.new_pc()

    emitted = 0
    while emitted < num_uops:
        for i, pc in enumerate(pc_ops):
            yield uop_ialu(pc, dst=1 + (i % 3), srcs=(1 + (i % 3), 2))
            emitted += 1
        yield MicroOp(pc=pc_mul, uop_class=UopClass.IMUL, srcs=(1, 3), dst=4)
        yield uop_branch(pc_branch, taken=True, target=pc_ops[0], srcs=(4,))
        emitted += 2


compute_kernel = _eager(_stream_compute_kernel, "compute_kernel")
