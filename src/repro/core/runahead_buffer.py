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

Because the chain tracks a single static load, prefetch coverage is limited to
that one slice per runahead interval — the coverage limitation PRE removes.

A chain whose address computation transitively depends on the stalling load's
own value (classic pointer chasing) cannot produce valid prefetch addresses;
such intervals execute the replay loop but generate no prefetches, matching
the INV-propagation behaviour of the hardware proposal.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.core.base import RunaheadController
from repro.uarch.core import ExecutionMode
from repro.uarch.isa import execution_latency
from repro.workloads.trace import MicroOp, UopClass

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


class RunaheadBufferController(RunaheadController):
    """Runahead buffer: replay a single stalling slice per runahead interval."""

    name = "runahead_buffer"
    pseudo_retire_in_runahead = False
    commit_in_runahead = False
    #: The replay loop prefetches *future* dynamic instances of the stalling
    #: load by indexing the whole trace; streaming sources are materialised
    #: for this controller (see :class:`repro.uarch.core.OoOCore`).
    requires_trace_oracle = True

    #: Consecutive useless (no-prefetch) intervals after which runahead entry
    #: is throttled ("useless period elimination", Mutlu et al. [6]).
    USELESS_STREAK_LIMIT = 3
    #: While throttled, only one stall in this many re-samples runahead mode.
    THROTTLE_SAMPLE_PERIOD = 16

    def __init__(
        self,
        max_chain_length: Optional[int] = None,
        minimum_interval: Optional[int] = None,
    ) -> None:
        super().__init__()
        self._max_chain_length = max_chain_length
        self._minimum_interval = minimum_interval
        self._useless_streak = 0
        self._throttled_stalls = 0
        self.buffer_stats = RunaheadBufferStats()
        self._stalling_load: Optional["DynInstr"] = None
        self._restart_index: Optional[int] = None
        #: Prefetches issued in the current interval, for the useless-streak throttle.
        self._interval_prefetches = 0
        self._chain: Optional[DependencyChain] = None
        self._next_replay_cycle = 0
        self._prefetch_seqs: List[int] = []
        self._prefetch_pointer = 0
        self._pc_index: Dict[int, List[int]] = {}

    # ------------------------------------------------------------ properties

    #: Bytes of runahead-buffer storage per chain micro-op (pc + class + regs).
    BYTES_PER_CHAIN_UOP = 8
    #: Chain length assumed before :meth:`attach` provides the core's config.
    DEFAULT_MAX_CHAIN_LENGTH = 32
    #: Smallest SRAM macro the energy model will instantiate for the buffer.
    MIN_STORAGE_BYTES = 64

    @property
    def max_chain_length(self) -> int:
        """Maximum dependence-chain length the buffer stores."""
        return self._max_chain_length or self.DEFAULT_MAX_CHAIN_LENGTH

    @property
    def storage_bytes(self) -> int:
        """SRAM capacity of the runahead buffer, as modelled for energy."""
        return max(self.max_chain_length * self.BYTES_PER_CHAIN_UOP, self.MIN_STORAGE_BYTES)

    # ------------------------------------------------------------- lifecycle

    def attach(self, core) -> None:
        super().attach(core)
        if self._max_chain_length is None:
            self._max_chain_length = core.config.runahead_buffer_chain_length
        if self._minimum_interval is None:
            self._minimum_interval = core.config.runahead_minimum_interval
        self._pc_index = {}
        for seq, uop in enumerate(core.trace):
            if uop.is_load:
                self._pc_index.setdefault(uop.pc, []).append(seq)

    # ------------------------------------------------------------------ entry

    def on_full_window_stall(self, head: "DynInstr", cycle: int) -> None:
        core = self.core
        if core is None or core.mode == ExecutionMode.RUNAHEAD:
            return
        remaining = (head.completion_cycle or cycle) - cycle
        if remaining < (self._minimum_interval or 0):
            core.stats.runahead_entries_skipped_short += 1
            return
        if self._useless_streak >= self.USELESS_STREAK_LIMIT:
            # Recent replay loops produced no prefetches (e.g. the chain is
            # self-dependent pointer chasing): throttle entry, re-sampling
            # occasionally to detect phase changes.
            self._throttled_stalls += 1
            if self._throttled_stalls % self.THROTTLE_SAMPLE_PERIOD != 0:
                core.stats.runahead_entries_skipped_short += 1
                return
        chain = self._extract_chain(head)
        if chain is None:
            self.buffer_stats.chain_walks_failed += 1
            return
        self.buffer_stats.chains_built += 1
        self.buffer_stats.total_chain_length += chain.length
        if chain.self_dependent:
            self.buffer_stats.self_dependent_chains += 1
        core.stats.events.runahead_buffer_writes += chain.length

        core.enter_runahead(cycle)
        self._interval_prefetches = 0
        core.frontend.power_gated = True
        self._stalling_load = head
        self._restart_index = head.seq
        self._chain = chain
        self._next_replay_cycle = cycle + 1

        # The replay loop prefetches dynamic instances of the stalling load
        # beyond the ones already inside the stalled window.
        window_max_seq = max((instr.seq for instr in core.rob), default=head.seq)
        instances = self._pc_index.get(head.uop.pc, [])
        self._prefetch_seqs = instances
        self._prefetch_pointer = bisect.bisect_right(instances, window_max_seq)

    def _extract_chain(self, head: "DynInstr") -> Optional[DependencyChain]:
        """Backward data-flow walk in the ROB from a second instance of the stalling load."""
        core = self.core
        assert core is not None
        other = core.rob.find_other_instance(head.uop.pc, head.seq)
        if other is None:
            return None
        max_length = self.max_chain_length
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

    def on_complete(self, instr: "DynInstr", cycle: int) -> None:
        core = self.core
        if core is None or core.mode != ExecutionMode.RUNAHEAD:
            return
        if instr is not self._stalling_load:
            return
        restart = self._restart_index if self._restart_index is not None else instr.seq
        core.frontend.power_gated = False
        core.flush_pipeline(restart)
        core.exit_runahead(cycle)
        if self._interval_prefetches < 2:
            self._useless_streak += 1
        else:
            self._useless_streak = 0
            self._throttled_stalls = 0
        self._stalling_load = None
        self._restart_index = None
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
        if self._prefetch_pointer >= len(self._prefetch_seqs):
            return 1
        # Each replay iteration regenerates exactly one future dynamic instance
        # of the stalling load.  Instances whose line is already resident (for
        # example the next few elements of a unit-stride stream) simply hit in
        # the L1 and generate no prefetch; instances to new lines prefetch.
        seq = self._prefetch_seqs[self._prefetch_pointer]
        uop = core.trace[seq]
        if core.hierarchy.l1d.contains(uop.mem_addr):
            self._prefetch_pointer += 1
            return 1
        result = core.hierarchy.access_data(
            uop.mem_addr, cycle, is_write=False, is_prefetch=True, pc=uop.pc
        )
        if result.retried:
            # MSHRs full: retry the same instance on the next iteration.
            return 1
        self._prefetch_pointer += 1
        core.stats.runahead_prefetches += 1
        self._interval_prefetches += 1
        return 1

    def next_wake_cycle(self, cycle: int) -> Optional[int]:
        core = self.core
        if core is None or core.mode != ExecutionMode.RUNAHEAD or self._chain is None:
            return None
        return max(self._next_replay_cycle, cycle + 1)

    # ---------------------------------------------------------------- queries

    def treat_poison_as_ready(self, instr: "DynInstr") -> bool:
        core = self.core
        return core is not None and core.mode == ExecutionMode.RUNAHEAD
