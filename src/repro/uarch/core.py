"""The cycle-level out-of-order core model.

``OoOCore`` simulates the baseline core of Table 1 cycle by cycle: an 8-stage
front-end feeding a micro-op queue, 4-wide rename/dispatch into a 192-entry
ROB and 92-entry issue queue, out-of-order issue limited by register readiness
and load/store ports, a three-level cache hierarchy behind the load/store
queues, and 4-wide in-order commit.

Runahead techniques (traditional runahead, the runahead buffer, and PRE) plug
in through a *controller* object (see :mod:`repro.core.base`).  The core calls
the controller at well-defined points — full-window stalls, instruction
completion, dispatch while in runahead mode — and the controller manipulates
core state through public helpers (``rename_and_dispatch``, ``flush_pipeline``,
``poisoned_pregs`` …).  With no controller attached the core is exactly the
baseline out-of-order processor the paper normalises against.

Simulation speed
----------------
The main loop skips idle periods: when no pipeline stage makes progress in a
cycle, the clock jumps directly to the next scheduled event (an execution
completing, the front-end pipeline delivering, or a controller-declared wake
cycle).  This keeps multi-hundred-cycle full-window stalls cheap to simulate
without changing any timing, because in an idle cycle no state changes except
through those scheduled events.
"""

from __future__ import annotations

import dataclasses
import heapq
from bisect import bisect_right
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.memory.hierarchy import PrivateHierarchy
from repro.uarch.branch import GShareBranchPredictor
from repro.uarch.config import CoreConfig
from repro.uarch.frontend import FetchedUop, FrontEnd
from repro.uarch.isa import EXECUTION_LATENCY
from repro.uarch.issue_queue import IssueQueue
from repro.uarch.lsq import LoadStoreQueues
from repro.uarch.probes import Probe, ProbeSet
from repro.uarch.regfile import PhysicalRegisterFile
from repro.uarch.rename import RegisterAliasTable, RetirementRAT
from repro.uarch.rob import ReorderBuffer
from repro.uarch.stats import INTERVAL_BIN_EDGES, CoreStats
from repro.workloads.trace import FP_REG_BASE, MicroOp, Trace, TraceSource

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.base import RunaheadController

#: :data:`~repro.uarch.isa.EXECUTION_LATENCY` keyed by the class member's
#: identity.  Members are singletons, and an enum key would hash through the
#: Python-level ``Enum.__hash__`` on every issued micro-op.
_LATENCY_BY_CLASS_ID: Dict[int, int] = {
    id(uop_class): latency for uop_class, latency in EXECUTION_LATENCY.items()
}


class ExecutionMode:
    """Processor operating mode."""

    NORMAL = "normal"
    RUNAHEAD = "runahead"


class SimulationDeadlock(RuntimeError):
    """Raised when the simulation can make no further progress."""


class DynInstr:
    """A dynamic (renamed, in-flight) instruction.

    A ``__slots__`` class: tens of thousands are constructed per simulated
    kilocycle and their flags are read in every stage loop, so neither
    ``__dict__`` storage nor dataclass construction overhead is acceptable.
    ``is_load``/``is_store`` mirror the micro-op's precomputed kind flags so
    the issue-select loop reads one attribute instead of two.  Equality is
    identity (each dynamic instance is unique in flight).
    """

    __slots__ = (
        "uop",
        "seq",
        "runahead",
        "src_ops",
        "dest_is_fp",
        "dest_preg",
        "prev_preg",
        "predicted_taken",
        "dispatch_cycle",
        "earliest_issue_cycle",
        "issued",
        "completed",
        "squashed",
        "poisoned",
        "long_latency",
        "in_lsq",
        "issue_cycle",
        "completion_cycle",
        "is_load",
        "is_store",
    )

    def __init__(
        self,
        uop: MicroOp,
        seq: int,
        runahead: bool = False,
        src_ops: Tuple[Tuple[bool, int], ...] = (),
        dest_is_fp: Optional[bool] = None,
        dest_preg: Optional[int] = None,
        prev_preg: Optional[int] = None,
        predicted_taken: bool = False,
        dispatch_cycle: int = 0,
        earliest_issue_cycle: int = 0,
    ) -> None:
        self.uop = uop
        self.seq = seq
        self.runahead = runahead
        self.src_ops = src_ops
        self.dest_is_fp = dest_is_fp
        self.dest_preg = dest_preg
        self.prev_preg = prev_preg
        self.predicted_taken = predicted_taken
        self.dispatch_cycle = dispatch_cycle
        self.earliest_issue_cycle = earliest_issue_cycle
        self.issued = False
        self.completed = False
        self.squashed = False
        self.poisoned = False
        self.long_latency = False
        self.in_lsq = False
        self.issue_cycle: Optional[int] = None
        self.completion_cycle: Optional[int] = None
        self.is_load = uop.is_load
        self.is_store = uop.is_store

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = "".join(
            flag
            for flag, present in (
                ("R", self.runahead),
                ("I", self.issued),
                ("C", self.completed),
                ("P", self.poisoned),
                ("S", self.squashed),
                ("L", self.long_latency),
            )
            if present
        )
        return f"DynInstr(seq={self.seq}, {self.uop.uop_class.value}@{self.uop.pc:#x}, [{flags}])"


def _no_poison(instr: DynInstr) -> bool:
    """The baseline core's poison rule: no instruction consumes an INV value."""
    return False


class OoOCore:
    """Cycle-level out-of-order core, optionally extended with a runahead controller."""

    def __init__(
        self,
        trace: TraceSource,
        config: Optional[CoreConfig] = None,
        hierarchy: Optional[PrivateHierarchy] = None,
        controller: Optional["RunaheadController"] = None,
        name: Optional[str] = None,
        probes: Iterable[Probe] = (),
    ) -> None:
        self.config = config or CoreConfig()
        self.source = trace
        self.hierarchy = hierarchy or PrivateHierarchy()
        #: This core's identity on the shared uncore, mirrored from its
        #: memory port; probes receive the core object and can read it to
        #: attribute fills/writebacks/memory accesses in multi-core runs.
        self.core_id = self.hierarchy.core_id
        self.name = name or ("ooo" if controller is None else controller.name)
        self.stats = CoreStats()
        self.probes = ProbeSet(probes)

        self.predictor = GShareBranchPredictor(
            self.config.branch_predictor_entries, self.config.branch_history_bits
        )
        self.frontend = FrontEnd(
            trace,
            self.config,
            self.predictor,
            self.hierarchy.instruction_port(),
            self.stats,
        )
        self.rat = RegisterAliasTable()
        self.retirement_rat = RetirementRAT()
        self.int_rf = PhysicalRegisterFile(self.config.int_registers, name="int")
        self.fp_rf = PhysicalRegisterFile(self.config.fp_registers, name="fp")
        self.rob = ReorderBuffer(self.config.rob_size)
        self.iq = IssueQueue(self.config.issue_queue_size)
        self.lsq = LoadStoreQueues(self.config.load_queue_size, self.config.store_queue_size)

        #: Physical registers whose value is invalid in runahead mode,
        #: identified as (is_fp, physical register) pairs.
        self.poisoned_pregs: Set[Tuple[bool, int]] = set()

        self.mode = ExecutionMode.NORMAL
        self.cycle = 0
        self.committed_trace_uops = 0
        #: An in-memory trace's length, which is all :attr:`finished` needs;
        #: a streaming source's total is asked of its cursor instead.
        self._trace_total = len(trace) if isinstance(trace, Trace) else None
        self._events: List[Tuple[int, int, DynInstr]] = []
        self._event_counter = 0
        self._current_stall_seq: Optional[int] = None
        #: Entry cycle of the open runahead interval (None outside one).
        self._interval_entry: Optional[int] = None
        self._store_commit_stalled = False
        #: Cycle at which statistics collection began (nonzero only when a
        #: warmup prefix was excluded via ``run(stats_start_uop=...)``).
        self._stats_cycle_base = 0
        # Stepping bookkeeping armed by begin_run, advanced by step_cycle.
        self._warmup_target = 0
        self._last_committed = 0

        self.controller = controller
        if controller is not None:
            controller.attach(self)
        self.probes.attach(self)
        # Bridge the hierarchy's fill/writeback observers onto the probe API
        # only when some probe actually listens, so unprobed runs pay nothing.
        if self.probes.fill:
            self.hierarchy.fill_listener = self._emit_fill
        if self.probes.writeback:
            self.hierarchy.writeback_listener = self._emit_writeback

    # ------------------------------------------------------------------ utils

    def _emit_fill(self, level: str, line_addr: int, cycle: int) -> None:
        for probe in self.probes.fill:
            probe.on_fill(self, level, line_addr, cycle)

    def _emit_writeback(self, level: str, line_addr: int, cycle: int) -> None:
        for probe in self.probes.writeback:
            probe.on_writeback(self, level, line_addr, cycle)

    def regfile_for(self, is_fp: bool) -> PhysicalRegisterFile:
        """Return the integer or floating-point physical register file."""
        return self.fp_rf if is_fp else self.int_rf

    def poison(self, is_fp: bool, preg: int) -> None:
        """Mark physical register ``preg`` invalid (INV) in runahead mode.

        The one way to poison a register: a poisoned operand can turn ready
        for the instructions allowed to consume it, so the issue queue
        re-tests the entries parked on it.
        """
        self.poisoned_pregs.add((is_fp, preg))
        self.iq.wake(is_fp, preg)

    @property
    def finished(self) -> bool:
        """Whether every trace micro-op has committed.

        For streaming sources the total is learned when the stream exhausts;
        until then the run is by definition unfinished.
        """
        total = self._trace_total
        if total is None:
            total = self.frontend.cursor.known_length
            if total is None:
                return False
        return self.committed_trace_uops >= total

    # -------------------------------------------------------------------- run

    def run(
        self,
        max_cycles: Optional[int] = None,
        stats_start_uop: Optional[int] = None,
    ) -> CoreStats:
        """Simulate until the whole trace commits (or ``max_cycles`` elapse).

        ``stats_start_uop`` delays statistics collection until that many
        micro-ops have committed: at the crossing every counter is reset in
        place and ``cycles`` counts from that point on, so a shard's warmup
        prefix (which only exists to warm caches, predictors and queues)
        never leaks into the returned stats.  Microarchitectural state is
        *not* reset — that is the entire point of the warmup.

        The run is :func:`run_lockstep` over this one core.
        """
        return run_lockstep([self], max_cycles, stats_start_uop)[0]

    # ------------------------------------------------------------ stepping

    def begin_run(self, stats_start_uop: Optional[int] = None) -> None:
        """Arm the stepping bookkeeping before the first :meth:`step_cycle`.

        :func:`run_lockstep` calls this once per core before its first cycle.
        """
        self._warmup_target = stats_start_uop or 0
        self._last_committed = self.committed_trace_uops

    def step_cycle(self) -> bool:
        """One cycle of work at ``self.cycle``, without advancing the clock.

        Runs every stage, the controller and the per-cycle accounting, then
        the commit bookkeeping (cursor trimming, the warmup boundary); the
        caller moves the clock — ``+1`` on progress, :meth:`skip_to` on a
        computed wake cycle.  Returns whether any stage made progress.
        """
        cycle = self.cycle
        progress = 0
        if self._events and self._events[0][0] <= cycle:
            progress += self._writeback()
        progress += self._commit()
        if self.iq._candidates:
            progress += self._issue()
        progress += self._dispatch()
        progress += self.frontend.tick(cycle)
        controller = self.controller
        if controller is not None:
            progress += controller.tick(cycle)
        # One evaluation serves both the new-stall edge detection and the
        # stall-cycle accounting.
        stats = self.stats
        if self._in_full_window_stall():
            self._check_full_window_stall()
            stats.full_window_stall_cycles += 1
        else:
            self._current_stall_seq = None
        if self.mode == ExecutionMode.RUNAHEAD:
            stats.runahead_cycles += 1
        if self.probes.cycle:
            for probe in self.probes.cycle:
                probe.on_cycle(self, cycle)

        committed = self.committed_trace_uops
        if committed != self._last_committed:
            # Only a cycle that actually retired micro-ops can advance the
            # cursor's trim floor; skip the call on all other iterations.
            self.frontend.cursor.trim(committed)
            self._last_committed = committed
            if self._warmup_target and committed >= self._warmup_target:
                # Commit can overshoot the boundary by up to the pipeline
                # width inside one step; those commits are measured.
                self._begin_measurement(committed - self._warmup_target)
                self._warmup_target = 0
        return progress > 0

    def skip_to(self, wake: int) -> None:
        """Fast-forward the clock to ``wake`` (at least one cycle) while idle.

        Charges the skipped span to the stall/runahead cycle counters —
        ``skipped - 1`` because the no-progress cycle itself already counted
        inside :meth:`step_cycle` — and fires ``on_cycles_skipped`` probes over the
        fast-forwarded remainder.  Must only be called after a no-progress
        :meth:`step_cycle`, as the idle-skip in :func:`run_lockstep` does.
        """
        stats = self.stats
        skipped = max(wake, self.cycle + 1) - self.cycle
        if self._in_full_window_stall():
            stats.full_window_stall_cycles += skipped - 1
        if self.mode == ExecutionMode.RUNAHEAD:
            stats.runahead_cycles += skipped - 1
        probes_skipped = self.probes.cycles_skipped
        if probes_skipped and skipped > 1:
            # The no-progress cycle itself already fired on_cycle inside
            # step_cycle(); the span covers only the fast-forwarded remainder.
            for probe in probes_skipped:
                probe.on_cycles_skipped(self, self.cycle + 1, self.cycle + skipped)
        self.cycle += skipped

    def finish_run(self) -> CoreStats:
        """Close out the run: final cycle count, hierarchy drain, probe finish."""
        self.stats.cycles = self.cycle - self._stats_cycle_base
        # Settle fills whose latency elapsed but that no later access drained,
        # so end-of-run cache/DRAM/writeback statistics cover the whole window
        # (fills still genuinely in flight at the final cycle stay uncounted).
        self.hierarchy.drain(self.cycle)
        self.probes.finish(self, self.stats)
        return self.stats

    def _begin_measurement(self, already_measured: int) -> None:
        """Zero the statistics at the warmup/measurement boundary.

        Mutates :attr:`stats` in place — the object is shared with the
        front-end and any attached probes, so it must keep its identity.
        ``already_measured`` accounts for the commits by which the boundary
        step overshot ``stats_start_uop`` (their load/store breakdown is
        unrecoverable and stays zero; the count itself stays exact).  Probes
        then hear ``on_measurement_start`` and drop their warmup records.
        """
        stats = self.stats
        for stats_field in dataclasses.fields(CoreStats):
            value = getattr(stats, stats_field.name)
            if isinstance(value, (int, float)):
                setattr(stats, stats_field.name, type(value)())
            elif isinstance(value, list):
                value[:] = [0] * len(value)
        events = stats.events
        for event_field in dataclasses.fields(type(events)):
            setattr(events, event_field.name, 0)
        stats.committed_uops = already_measured
        events.committed_uops = already_measured
        self._stats_cycle_base = self.cycle
        # An interval open across the boundary began in the warmup, where
        # its entry was counted; it stays out of the measured summaries.
        self._interval_entry = None
        for probe in self.probes.measurement_start:
            probe.on_measurement_start(self, self.cycle)

    # -------------------------------------------------------------- writeback

    def _writeback(self) -> int:
        count = 0
        stats = self.stats
        events = stats.events
        events_heap = self._events
        cycle = self.cycle
        heappop = heapq.heappop
        controller = self.controller
        wake = self.iq.wake
        while events_heap and events_heap[0][0] <= cycle:
            instr = heappop(events_heap)[2]
            if instr.squashed:
                continue
            instr.completed = True
            dest_preg = instr.dest_preg
            if dest_preg is not None:
                # The bank is read per instruction: a controller's on_complete
                # may flush, which rebuilds the register files.
                is_fp = instr.dest_is_fp
                (self.fp_rf if is_fp else self.int_rf)._ready[dest_preg] = True
                wake(is_fp, dest_preg)
                events.regfile_writes += 1
                events.iq_wakeups += 1
            uop = instr.uop
            if uop.is_branch:
                mispredicted = instr.predicted_taken != uop.branch_taken
                self.predictor.update(uop.pc, uop.branch_taken, instr.predicted_taken)
                self.frontend.branch_resolved(instr.seq, cycle, mispredicted)
            events.executed_uops += 1
            if instr.runahead:
                stats.runahead_uops_executed += 1
            if controller is not None:
                controller.on_complete(instr, cycle)
            count += 1
        return count

    # ----------------------------------------------------------------- commit

    def _commit(self) -> int:
        controller = self.controller
        if controller is not None and self.mode == ExecutionMode.RUNAHEAD:
            if controller.pseudo_retire_in_runahead:
                return self._pseudo_retire_commit()
            return 0
        self._store_commit_stalled = False
        entries = self.rob._entries
        if not entries or not entries[0].completed:
            return 0
        committed = 0
        width = self.config.pipeline_width
        cycle = self.cycle
        while committed < width:
            if not entries:
                break
            head = entries[0]
            if not head.completed:
                break
            store_result = None
            if head.is_store:
                store_result = self.hierarchy.access_data(
                    head.uop.mem_addr, cycle, is_write=True, pc=head.uop.pc
                )
                if store_result.retried:
                    # No MSHR entry for the store's write-allocate: the store
                    # stays at the ROB head and commit retries when one frees.
                    self._store_commit_stalled = True
                    break
            entries.popleft()
            self._commit_instr(head, store_result)
            committed += 1
        return committed

    def _commit_instr(self, instr: DynInstr, store_result=None) -> None:
        stats = self.stats
        dest_preg = instr.dest_preg
        if dest_preg is not None:
            # The retirement RAT's commit, inline: every renamed destination
            # is an architectural one, so ``uop.dst`` is set whenever
            # ``dest_preg`` is.
            self.retirement_rat._physical[instr.uop.dst] = dest_preg
            prev_preg = instr.prev_preg
            if prev_preg is not None:
                regfile = self.fp_rf if instr.dest_is_fp else self.int_rf
                if prev_preg in regfile._allocated:
                    regfile.free(prev_preg)
        if instr.is_store:
            stats.committed_stores += 1
            if self.probes.mem_access and store_result is not None:
                for probe in self.probes.mem_access:
                    probe.on_mem_access(self, instr, store_result, self.cycle)
        elif instr.is_load:
            stats.committed_loads += 1
        if instr.in_lsq:
            self.lsq.release(instr)
        self.committed_trace_uops += 1
        stats.committed_uops += 1
        events = stats.events
        events.committed_uops += 1
        events.rob_reads += 1
        if self.probes.commit:
            for probe in self.probes.commit:
                probe.on_commit(self, instr, self.cycle)

    def _pseudo_retire_commit(self) -> int:
        """Runahead-mode commit for RA and RA-buffer: drain the window without
        updating architectural state (Section 2.2)."""
        retired = 0
        entries = self.rob._entries
        width = self.config.pipeline_width
        events = self.stats.events
        while retired < width and entries:
            head = entries[0]
            invalid_load = (
                not head.completed and head.is_load and head.issued and head.long_latency
            )
            if not head.completed and not invalid_load:
                break
            entries.popleft()
            dest_preg = head.dest_preg
            if dest_preg is not None:
                regfile = self.fp_rf if head.dest_is_fp else self.int_rf
                if invalid_load:
                    # The load's result is marked INV; dependents may issue
                    # and propagate the poison instead of waiting for the data.
                    regfile.set_ready(dest_preg)
                    self.poison(head.dest_is_fp, dest_preg)
                prev_preg = head.prev_preg
                if prev_preg is not None and prev_preg in regfile._allocated:
                    regfile.free(prev_preg)
            if head.in_lsq:
                self.lsq.release(head)
            events.pseudo_retired_uops += 1
            retired += 1
        return retired

    # ------------------------------------------------------------------ issue

    def _issue(self) -> int:
        cycle = self.cycle
        config = self.config
        controller = self.controller
        iq = self.iq
        poisoned_pregs = self.poisoned_pregs
        selected = iq.select_ready(
            cycle,
            config.pipeline_width,
            self.int_rf._ready,
            self.fp_rf._ready,
            config.max_loads_per_cycle,
            config.max_stores_per_cycle,
            poisoned_pregs,
            _no_poison if controller is None else controller.treat_poison_as_ready,
        )
        issued = 0
        events = self.stats.events
        heap = self._events
        heappush = heapq.heappush
        for instr in selected:
            poisoned = instr.poisoned
            if not poisoned and poisoned_pregs:
                for op in instr.src_ops:
                    if op in poisoned_pregs:
                        poisoned = True
                        break
            if instr.is_load and not poisoned:
                latency = self._issue_load(instr)
                if latency is None:
                    continue  # MSHR full: retry in a later cycle.
            else:
                latency = _LATENCY_BY_CLASS_ID[id(instr.uop.uop_class)]
                if instr.is_load:
                    instr.poisoned = True
            if poisoned and instr.dest_preg is not None:
                self.poison(instr.dest_is_fp, instr.dest_preg)
                instr.poisoned = True
            iq.remove(instr)
            instr.issued = True
            instr.issue_cycle = cycle
            completion = cycle + latency
            instr.completion_cycle = completion
            counter = self._event_counter + 1
            self._event_counter = counter
            heappush(heap, (completion, counter, instr))
            events.issued_uops += 1
            events.regfile_reads += len(instr.src_ops)
            issued += 1
        return issued

    def _issue_load(self, instr: DynInstr) -> Optional[int]:
        forwarding = None if instr.runahead else self.lsq.forwarding_store(instr)
        self.stats.events.lsq_accesses += 1
        if forwarding is not None:
            return 1
        result = self.hierarchy.access_data(
            instr.uop.mem_addr,
            self.cycle,
            is_write=False,
            is_prefetch=instr.runahead,
            pc=instr.uop.pc,
        )
        if result.retried:
            return None
        instr.long_latency = result.is_long_latency
        if result.is_long_latency:
            self.stats.long_latency_loads += 1
        if instr.runahead:
            self.stats.runahead_prefetches += 1
            if self.controller is not None:
                self.controller.on_runahead_prefetch(instr, result, self.cycle)
        elif result.level.value == "inflight":
            self.stats.loads_hit_under_prefetch += 1
        if self.probes.mem_access:
            for probe in self.probes.mem_access:
                probe.on_mem_access(self, instr, result, self.cycle)
        return max(result.latency, 1)

    # --------------------------------------------------------------- dispatch

    def _dispatch(self) -> int:
        if self.mode == ExecutionMode.RUNAHEAD and self.controller is not None:
            return self.controller.runahead_dispatch(self.cycle)
        queue = self.frontend.uop_queue
        if not queue:
            return 0
        cycle = self.cycle
        dispatched = 0
        width = self.config.pipeline_width
        while dispatched < width and queue:
            entry = queue[0]
            if entry.ready_cycle > cycle:
                break
            if not self.can_dispatch(entry.uop):
                break
            queue.popleft()
            self.rename_and_dispatch(entry, False)
            dispatched += 1
        return dispatched

    def can_dispatch(self, uop: MicroOp) -> bool:
        """Whether every back-end resource ``uop`` needs is available.

        Part of the controller-facing surface: runahead controllers gate their
        speculative dispatch on the same check as normal dispatch.
        """
        rob = self.rob
        if len(rob._entries) >= rob.capacity:
            return False
        iq = self.iq
        if len(iq._entries) >= iq.capacity:
            return False
        if uop.is_memory and not self.lsq.can_dispatch_uop(uop):
            return False
        dst = uop.dst
        if dst is not None and not (self.fp_rf if dst >= FP_REG_BASE else self.int_rf)._free:
            return False
        return True

    def rename_and_dispatch(
        self, entry: FetchedUop, runahead: bool, enter_rob: Optional[bool] = None
    ) -> DynInstr:
        """Rename ``entry`` and insert it into the back-end.

        Normal-mode instructions enter the ROB, LSQ and issue queue.
        Runahead-mode instructions (``runahead=True``) by default enter only
        the issue queue: they borrow free physical registers, never commit,
        and are discarded after execution (Section 3.3).  Traditional runahead
        passes ``enter_rob=True`` because its speculative instructions occupy
        and pseudo-retire from the ROB.  Callers in runahead mode are
        responsible for checking resource availability first.
        """
        if enter_rob is None:
            enter_rob = not runahead
        uop = entry.uop
        if self.controller is not None:
            self.controller.on_decode(uop, runahead)
        rat = self.rat
        src_ops = rat.operands(uop.srcs)
        cycle = self.cycle
        dst = uop.dst
        if dst is None:
            instr = DynInstr(
                uop, entry.seq, runahead, src_ops, None, None, None,
                entry.predicted_taken, cycle, cycle + 1,
            )
        else:
            dest_is_fp = dst >= FP_REG_BASE
            dest_preg = (self.fp_rf if dest_is_fp else self.int_rf).allocate()
            instr = DynInstr(
                uop, entry.seq, runahead, src_ops, dest_is_fp, dest_preg,
                rat.rename(dst, dest_preg, uop.pc).physical,
                entry.predicted_taken, cycle, cycle + 1,
            )
        events = self.stats.events
        events.renamed_uops += 1
        events.dispatched_uops += 1
        events.iq_writes += 1
        if enter_rob:
            self.rob.push(instr)
            events.rob_writes += 1
            if uop.is_memory:
                self.lsq.dispatch(instr)
                instr.in_lsq = True
        self.iq.insert(instr)
        return instr

    # -------------------------------------------------- full-window stalls

    def _in_full_window_stall(self) -> bool:
        rob = self.rob
        entries = rob._entries
        if len(entries) < rob.capacity:
            return False
        head = entries[0]
        return head.is_load and head.issued and not head.completed and head.long_latency

    @property
    def in_full_window_stall(self) -> bool:
        """Whether the ROB is full behind an outstanding long-latency load."""
        return self._in_full_window_stall()

    def _check_full_window_stall(self) -> None:
        """Detect the start of a new full-window stall while one is on."""
        head = self.rob._entries[0]
        if self._current_stall_seq == head.seq:
            return
        self._current_stall_seq = head.seq
        stats = self.stats
        stats.full_window_stalls += 1
        stats.stall_free_iq_sum += self.iq.free_fraction
        stats.stall_free_int_reg_sum += self.int_rf.free_fraction
        stats.stall_free_fp_reg_sum += self.fp_rf.free_fraction
        if self.probes.full_window_stall:
            for probe in self.probes.full_window_stall:
                probe.on_full_window_stall(self, head, self.cycle)
        if self.controller is not None and self.mode == ExecutionMode.NORMAL:
            self.controller.on_full_window_stall(head, self.cycle)

    # --------------------------------------------------- runahead transitions

    def enter_runahead(self, cycle: int) -> None:
        """Switch to runahead mode, open an interval and notify probes.

        Centralises the bookkeeping every controller used to repeat (interval
        opening, invocation counting) and notifies ``on_runahead_enter``
        probes.
        """
        self.mode = ExecutionMode.RUNAHEAD
        self._interval_entry = cycle
        self.stats.runahead_invocations += 1
        if self.probes.runahead_enter:
            for probe in self.probes.runahead_enter:
                probe.on_runahead_enter(self, cycle)

    def exit_runahead(self, cycle: int) -> None:
        """Return to normal mode, fold the open interval into the summaries, notify probes."""
        self.mode = ExecutionMode.NORMAL
        entry = self._interval_entry
        if entry is not None:
            length = cycle - entry
            stats = self.stats
            stats.runahead_interval_cycles += length
            stats.runahead_interval_bins[bisect_right(INTERVAL_BIN_EDGES, length)] += 1
            self._interval_entry = None
        if self.probes.runahead_exit:
            for probe in self.probes.runahead_exit:
                probe.on_runahead_exit(self, cycle)

    # ------------------------------------------------------------------ flush

    def flush_pipeline(self, restart_index: int) -> None:
        """Discard all in-flight state and restart fetch at ``restart_index``.

        Used by the traditional-runahead and runahead-buffer controllers at
        runahead exit (Section 2.2): the full window is discarded, the
        speculative RAT is rebuilt from the retirement RAT, the register free
        lists are recomputed, and fetch restarts at the stalling load.
        """
        for instr in self.rob.clear():
            instr.squashed = True
            self.stats.events.squashed_uops += 1
        for instr in self.iq.clear():
            instr.squashed = True
        self.lsq.clear()
        self.poisoned_pregs.clear()
        self.rat.restore(self.retirement_rat.to_checkpoint())
        self.int_rf.rebuild(self.retirement_rat.live_physicals(fp=False))
        self.fp_rf.rebuild(self.retirement_rat.live_physicals(fp=True))
        self.frontend.redirect(restart_index, self.cycle)
        self.stats.pipeline_flushes += 1

    # ------------------------------------------------------------- wake logic

    def next_wake_cycle(self) -> Optional[int]:
        """The earliest cycle at which stepping again could make progress.

        ``None`` means no scheduled event exists and the core is deadlocked
        (:func:`run_lockstep` keeps stepping its other cores and raises once
        *every* unfinished core is stuck).
        """
        # Running minimum over the wake candidates: this runs on every
        # no-progress cycle (the stall fast path), so no candidate list is
        # materialised — each source is compared against ``best`` in place.
        cycle = self.cycle
        best: Optional[int] = None
        if self._events:
            candidate = self._events[0][0]
            if candidate > cycle:
                best = candidate
        delivery = self.frontend.earliest_delivery_cycle()
        if delivery is not None and delivery > cycle and (best is None or delivery < best):
            best = delivery
        resume = self.frontend.next_resume_cycle()
        if resume is not None and resume > cycle and (best is None or resume < best):
            best = resume
        if self.controller is not None:
            wake = self.controller.next_wake_cycle(cycle)
            if wake is not None and wake > cycle and (best is None or wake < best):
                best = wake
        if self._store_commit_stalled:
            # A committed store is waiting for an MSHR entry to free; the
            # fills holding them are not all core-scheduled events (hardware
            # prefetches, instruction fetches), so wake when one completes.
            # Asked at the port level: the MSHR file is the hierarchy's own
            # book of record, not the core's to read.
            free_at = self.hierarchy.earliest_completion(cycle)
            if free_at is None or free_at <= cycle:
                free_at = cycle + 1
            if best is None or free_at < best:
                best = free_at
        return best

    def deadlock_report(self) -> str:
        """Human-readable snapshot of why the core can make no progress."""
        head = self.rob.head()
        total = self.frontend.cursor.known_length
        return (
            f"simulation deadlock at cycle {self.cycle}: committed "
            f"{self.committed_trace_uops}/{total if total is not None else '?'} micro-ops, "
            f"mode={self.mode}, "
            f"ROB={len(self.rob)}/{self.rob.capacity}, IQ={len(self.iq)}/{self.iq.capacity}, "
            f"uop queue={len(self.frontend.uop_queue)}, head={head!r}"
        )


def run_lockstep(
    cores: Sequence[OoOCore],
    max_cycles: Optional[int] = None,
    stats_start_uop: Optional[int] = None,
) -> List[CoreStats]:
    """Run ``cores`` to completion on one shared clock; stats in core order.

    The one run loop: :meth:`OoOCore.run` is this loop over one core,
    :class:`~repro.simulation.multicore.MultiCoreSimulator` over N.  Each
    cycle every active core steps once, in core order; a stalled core moves
    on with the clock while any neighbour works, and when none made progress
    all fast-forward to the earliest wake-up among them.  A core that has
    committed its trace (or reached ``max_cycles``) is finalised and leaves
    while the others run on.  The loop drives only the stepping API, through
    each core instance, and raises :class:`SimulationDeadlock` naming every
    stuck core once no unfinished core has anything scheduled.
    """
    if not cores or any(core.cycle != cores[0].cycle for core in cores):
        raise ValueError("run_lockstep needs one or more cores on the same cycle")
    for core in cores:
        core.begin_run(stats_start_uop)
    now = cores[0].cycle
    results: Dict[int, CoreStats] = {}
    active = list(cores)
    # Whether a core may have to leave before the next cycle: at the start,
    # one can be finished already (an empty trace) or have no cycle budget.
    retire = True
    while True:
        if retire:
            # Finalise cores that finished (or ran out of budget) on the
            # previous cycle before anyone steps again.
            spent = max_cycles is not None and now >= max_cycles
            for core in active:
                if spent or core.finished:
                    results[id(core)] = core.finish_run()
            active = [core for core in active if id(core) not in results]
            if not active:
                return [results[id(core)] for core in cores]
            retire = False

        progress = stalled = False
        for core in active:
            if core.step_cycle():
                core.cycle += 1  # a finishing step's cycle is part of the run
                progress = True
                if core.finished:
                    retire = True
            elif core.finished:
                # A streaming source's length is only learned when fetch
                # exhausts it, possibly in a no-progress step: the core's
                # run ends on this cycle.
                retire = True
            else:
                stalled = True

        if progress:
            if stalled:
                for core in active:
                    if core.cycle == now and not core.finished:
                        core.cycle += 1
            now += 1
        elif stalled:
            # Only a core that finished in this very step is not stalled.
            wake = None
            for core in active:
                if retire and core.finished:
                    continue
                candidate = core.next_wake_cycle()
                if candidate is not None and (wake is None or candidate < wake):
                    wake = candidate
            if wake is None:
                raise SimulationDeadlock("\n\n".join(
                    f"[core {index}]\n{core.deadlock_report()}"
                    for index, core in enumerate(cores)
                    if core in active and not core.finished
                ))
            if max_cycles is not None and wake > max_cycles:
                wake = max_cycles
            for core in active:
                if not (retire and core.finished):
                    core.skip_to(wake)
            now = wake if wake > now else now + 1
        if max_cycles is not None and now >= max_cycles:
            retire = True
