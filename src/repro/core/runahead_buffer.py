"""Filtered runahead execution with a runahead buffer (RA-buffer).

Models the proposal of Hashemi et al. [4] as described in Section 2.3:

* on a full-window stall, a backward data-flow walk through the ROB finds the
  dependency chain ("stalling slice") that produces another dynamic instance
  of the stalling load;
* the chain is stored in the runahead buffer, the front-end is power gated,
  and in runahead mode the chain alone is renamed, dispatched and executed in
  a loop — each iteration generating a prefetch for the *next* dynamic
  instance of the stalling load;
* when the stalling load returns the pipeline is flushed and normal execution
  restarts at the stalling load, exactly as in traditional runahead.

The controller is traditional runahead (:mod:`repro.core.runahead`) with a
different interval: the entry filter, the flush at exit and the poison rule
are RA's.  Each replay iteration reads the stalling load's next instance
forward through the front end's trace cursor, from just past the stalled
window, so the cursor buffers a streaming source only up to the replay's reach.

Because the chain tracks a single static load, prefetch coverage is limited to
that one slice per runahead interval — the coverage limitation PRE removes.

A chain whose address computation transitively depends on the stalling load's
own value (classic pointer chasing) cannot produce valid prefetch addresses;
such intervals execute the replay loop but generate no prefetches, matching
the INV-propagation behaviour of the hardware proposal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.core.runahead import TraditionalRunaheadController
from repro.uarch.core import ExecutionMode
from repro.workloads.trace import MicroOp

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.uarch.core import DynInstr


@dataclass
class DependencyChain:
    """A stalling slice extracted by the backward data-flow walk."""

    root_pc: int
    uops: List[MicroOp]
    self_dependent: bool
    iteration_latency: int

    @property
    def length(self) -> int:
        """Number of micro-ops in the chain."""
        return len(self.uops)


@dataclass
class RunaheadBufferStats:
    """Statistics specific to the runahead buffer mechanism."""

    chains_built: int = 0
    chain_walks_failed: int = 0
    self_dependent_chains: int = 0
    replay_iterations: int = 0
    total_chain_length: int = 0


class RunaheadBufferController(TraditionalRunaheadController):
    """Runahead buffer: replay a single stalling slice per runahead interval."""

    name = "runahead_buffer"
    pseudo_retire_in_runahead = False

    #: Bytes of runahead-buffer storage per chain micro-op (pc + class + regs).
    BYTES_PER_CHAIN_UOP = 8
    #: Smallest SRAM macro the energy model will instantiate for the buffer.
    MIN_STORAGE_BYTES = 64

    def __init__(self) -> None:
        super().__init__()
        self.buffer_stats = RunaheadBufferStats()
        self._chain: Optional[DependencyChain] = None
        self._next_replay_cycle = 0
        #: Trace index of the stalling load's next dynamic instance, or of
        #: the point the forward search for it has reached.
        self._instance_seq = 0

    @property
    def storage_bytes(self) -> int:
        """SRAM capacity of the runahead buffer, as modelled for energy."""
        assert self.core is not None
        chain_length = self.core.config.runahead_buffer_chain_length
        return max(chain_length * self.BYTES_PER_CHAIN_UOP, self.MIN_STORAGE_BYTES)

    # ------------------------------------------------------------------ entry

    def _begin_interval(self, head: "DynInstr", cycle: int) -> bool:
        """Extract the stalling slice into the buffer and power-gate the front end.

        Declines the interval when the ROB holds no second instance of the
        stalling load to walk back from.
        """
        core = self.core
        assert core is not None
        chain = self._extract_chain(head)
        if chain is None:
            self.buffer_stats.chain_walks_failed += 1
            return False
        self.buffer_stats.chains_built += 1
        self.buffer_stats.total_chain_length += chain.length
        if chain.self_dependent:
            self.buffer_stats.self_dependent_chains += 1
        core.stats.events.runahead_buffer_writes += chain.length
        core.frontend.power_gated = True
        self._chain = chain
        self._next_replay_cycle = cycle + 1
        # The replay loop prefetches dynamic instances of the stalling load
        # beyond the ones already inside the stalled window.
        self._instance_seq = max(instr.seq for instr in core.rob) + 1
        return True

    def _extract_chain(self, head: "DynInstr") -> Optional[DependencyChain]:
        """Backward data-flow walk in the ROB from a second instance of the stalling load."""
        core = self.core
        assert core is not None
        other = core.rob.find_other_instance(head.uop.pc, head.seq)
        if other is None:
            return None
        max_length = core.config.runahead_buffer_chain_length
        chain: List["DynInstr"] = [other]
        chain_pcs = {other.uop.pc}
        needed = set(other.uop.srcs)
        for instr in core.rob.entries_before(other.seq):
            if not needed or len(chain) >= max_length:
                break
            dst = instr.uop.dst
            if dst is None or dst not in needed:
                continue
            if instr.uop.pc in chain_pcs:
                # The walk reached an earlier dynamic instance of a static
                # instruction already in the chain: the slice is a loop (e.g.
                # an induction variable), so one iteration has been captured
                # and the walk stops here, exactly as the runahead buffer
                # stores a single loop body to replay.
                needed.discard(dst)
                continue
            chain.append(instr)
            chain_pcs.add(instr.uop.pc)
            needed.discard(dst)
            needed.update(instr.uop.srcs)
        chain_uops = [instr.uop for instr in sorted(chain, key=lambda item: item.seq)]
        return DependencyChain(
            root_pc=head.uop.pc,
            uops=chain_uops,
            self_dependent=self._is_self_dependent(chain_uops, head.uop.pc),
            iteration_latency=self._iteration_latency(chain_uops),
        )

    @staticmethod
    def _is_self_dependent(chain_uops: Sequence[MicroOp], root_pc: int) -> bool:
        """Whether the root load's address transitively depends on its own value."""
        producers: Dict[int, int] = {}
        for uop in chain_uops:
            if uop.dst is not None:
                producers[uop.dst] = uop.pc
        root = next((uop for uop in chain_uops if uop.pc == root_pc), None)
        if root is None:
            return False
        visited = set()
        frontier = list(root.srcs)
        while frontier:
            reg = frontier.pop()
            if reg in visited:
                continue
            visited.add(reg)
            producer_pc = producers.get(reg)
            if producer_pc is None:
                continue
            if producer_pc == root_pc:
                return True
            producer = next((uop for uop in chain_uops if uop.pc == producer_pc), None)
            if producer is not None:
                frontier.extend(producer.srcs)
        return False

    def _iteration_latency(self, chain_uops: Sequence[MicroOp]) -> int:
        """Cycles between successive replay iterations.

        Successive iterations of the chain are independent except for the
        address-generation (induction) micro-ops, so the replay loop is
        limited by how fast the chain can be renamed and dispatched from the
        runahead buffer, not by the full serial latency of one iteration.
        Loads inside the chain that feed the root load's address (e.g. an
        index load) still gate the initiation rate with their L1 hit latency.
        """
        core = self.core
        assert core is not None
        dispatch_cycles = -(-len(chain_uops) // core.config.pipeline_width)
        feeding_load_cycles = sum(
            core.hierarchy.config.l1d.latency
            for uop in chain_uops[:-1]
            if uop.is_load
        )
        return max(dispatch_cycles, feeding_load_cycles, 1)

    # ------------------------------------------------------------------- exit

    def _end_interval(self) -> None:
        core = self.core
        assert core is not None
        core.frontend.power_gated = False
        self._chain = None

    # ---------------------------------------------------------------- replay

    def runahead_dispatch(self, cycle: int) -> int:
        """The front-end is power gated; dispatch happens from the buffer in :meth:`tick`."""
        return 0

    def tick(self, cycle: int) -> int:
        core = self.core
        if core is None or core.mode != ExecutionMode.RUNAHEAD or self._chain is None:
            return 0
        if cycle < self._next_replay_cycle:
            return 0
        chain = self._chain
        self.buffer_stats.replay_iterations += 1
        core.stats.events.runahead_buffer_reads += chain.length
        core.stats.events.renamed_uops += chain.length
        core.stats.events.dispatched_uops += chain.length
        core.stats.events.issued_uops += chain.length
        core.stats.events.executed_uops += chain.length
        core.stats.runahead_uops_executed += chain.length
        self._next_replay_cycle = cycle + chain.iteration_latency

        if chain.self_dependent:
            return 1
        uop = self._next_instance(chain.root_pc)
        if uop is None:
            return 1
        # Each replay iteration regenerates exactly one future dynamic instance
        # of the stalling load.  Instances whose line is already resident (for
        # example the next few elements of a unit-stride stream) simply hit in
        # the L1 and generate no prefetch; instances to new lines prefetch.
        if core.hierarchy.l1d.contains(uop.mem_addr):
            self._instance_seq += 1
            return 1
        result = core.hierarchy.access_data(
            uop.mem_addr, cycle, is_write=False, is_prefetch=True, pc=uop.pc
        )
        if result.retried:
            # MSHRs full: retry the same instance on the next iteration.
            return 1
        self._instance_seq += 1
        core.stats.runahead_prefetches += 1
        self._interval_prefetches += 1
        return 1

    def _next_instance(self, pc: int) -> Optional[MicroOp]:
        """The next load at ``pc`` from :attr:`_instance_seq` on (``None`` past the end).

        The search position stays on the instance found, so a retried
        prefetch finds it again at no cost.
        """
        core = self.core
        assert core is not None
        fetch = core.frontend.cursor.fetch
        seq = self._instance_seq
        uop = fetch(seq)
        while uop is not None and not (uop.is_load and uop.pc == pc):
            seq += 1
            uop = fetch(seq)
        self._instance_seq = seq
        return uop

    def next_wake_cycle(self, cycle: int) -> Optional[int]:
        core = self.core
        if core is None or core.mode != ExecutionMode.RUNAHEAD or self._chain is None:
            return None
        return max(self._next_replay_cycle, cycle + 1)
