"""Precise Runahead Execution (PRE) — the paper's contribution.

PRE (Section 3) removes the two structural costs of earlier runahead
proposals:

* **No pipeline flush.**  On a full-window stall the Register Alias Table is
  checkpointed and the ROB is left untouched; the instructions in the stalled
  window keep executing, no instruction commits, and on exit the checkpoint is
  restored and commit resumes immediately from the stalling load.
* **Full slice coverage.**  All stalling slices are learned in the Stalling
  Slice Table (SST); in runahead mode, decoded micro-ops that hit in the SST —
  and only those — are renamed onto free physical registers and executed
  speculatively, generating prefetches for every future long-latency load
  whose address does not depend on the missing data.

Free physical registers are recycled through the Precise Register Deallocation
Queue (PRDQ, Section 3.4) so that runahead execution never steals registers
from the stalled window.  The optional Extended Micro-op Queue (EMQ,
Section 3.3) additionally buffers every micro-op decoded during runahead mode
and replays it at exit, saving the second fetch/decode at the cost of bounding
the runahead depth by the EMQ capacity.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Set, Tuple

from repro.core.base import RunaheadController
from repro.core.emq import ExtendedMicroOpQueue
from repro.core.prdq import PreciseRegisterDeallocationQueue
from repro.core.sst import StallingSliceTable
from repro.uarch.core import ExecutionMode
from repro.uarch.rename import RATCheckpoint
from repro.workloads.trace import MicroOp, is_fp_reg

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.uarch.core import DynInstr


class PreciseRunaheadController(RunaheadController):
    """PRE, optionally with the Extended Micro-op Queue (PRE+EMQ)."""

    def __init__(self, use_emq: bool = False) -> None:
        super().__init__()
        self.use_emq = use_emq
        self.name = "pre_emq" if use_emq else "pre"
        self.sst: Optional[StallingSliceTable] = None
        self.prdq: Optional[PreciseRegisterDeallocationQueue] = None
        self.emq: Optional[ExtendedMicroOpQueue] = None

        self._stalling_load: Optional["DynInstr"] = None
        self._rat_checkpoint: Optional[RATCheckpoint] = None
        self._resume_seq: Optional[int] = None
        #: Physical registers allocated by runahead instructions and not yet reclaimed.
        self._runahead_pregs: Set[Tuple[bool, int]] = set()
        self._runahead_instrs: list = []

    # ------------------------------------------------------------- lifecycle

    def attach(self, core) -> None:
        super().attach(core)
        config = core.config
        self.sst = StallingSliceTable(config.sst_entries)
        self.prdq = PreciseRegisterDeallocationQueue(config.prdq_entries)
        self.emq = ExtendedMicroOpQueue(config.emq_entries) if self.use_emq else None

    # ---------------------------------------------------------- SST learning

    def on_decode(self, uop: MicroOp, runahead: bool) -> None:
        if runahead:
            # Runahead-mode micro-ops are looked up explicitly in
            # :meth:`runahead_dispatch` before the rename decision is made.
            return
        self._lookup_and_learn(uop)

    def _lookup_and_learn(self, uop: MicroOp) -> bool:
        """Probe the SST for ``uop`` and, on a hit, learn its producers' PCs.

        Implements the iterative slice-tracking of Section 3.2: the producers
        are found through the RAT's producer-PC extension, so one additional
        level of the backward slice is learned every time the instruction is
        decoded again.
        """
        core = self.core
        assert core is not None and self.sst is not None
        core.stats.events.sst_lookups += 1
        hit = self.sst.lookup(uop.pc)
        if not hit:
            return False
        core.stats.events.sst_hits += 1
        for src in uop.srcs:
            producer_pc = core.rat.producer_pc(src)
            if producer_pc is not None and not self.sst.contains(producer_pc):
                self.sst.insert(producer_pc)
                core.stats.events.sst_inserts += 1
        return True

    # ------------------------------------------------------------------ entry

    def on_full_window_stall(self, head: "DynInstr", cycle: int) -> None:
        core = self.core
        if core is None or core.mode == ExecutionMode.RUNAHEAD:
            return
        assert self.sst is not None
        if not self.sst.contains(head.uop.pc):
            self.sst.insert(head.uop.pc)
            core.stats.events.sst_inserts += 1

        core.enter_runahead(cycle)
        self._stalling_load = head
        self._rat_checkpoint = core.rat.checkpoint()
        self._resume_seq = core.frontend.next_dispatch_seq()
        self._runahead_pregs.clear()
        self._runahead_instrs = []
        if head.dest_preg is not None:
            core.poison(head.dest_is_fp, head.dest_preg)

    # ------------------------------------------------------------------- exit

    def on_complete(self, instr: "DynInstr", cycle: int) -> None:
        core = self.core
        if core is None or core.mode != ExecutionMode.RUNAHEAD:
            return
        if instr.runahead and self.prdq is not None:
            self.prdq.mark_executed(instr)
        if instr is self._stalling_load:
            self._exit_runahead(cycle)

    def _exit_runahead(self, cycle: int) -> None:
        core = self.core
        assert core is not None and self.prdq is not None
        # Squash runahead instructions still waiting in the issue queue or in
        # flight in the execution units; their results are never used.
        for instr in core.iq.squash(lambda item: item.runahead):
            instr.squashed = True
            core.stats.events.squashed_uops += 1
        for instr in self._runahead_instrs:
            if not instr.completed:
                instr.squashed = True
        self.prdq.clear()
        # Restore the RAT checkpoint (Section 3.5) and return every register
        # borrowed by runahead execution to the free lists.
        if self._rat_checkpoint is not None:
            core.rat.restore(self._rat_checkpoint)
        for is_fp, preg in self._runahead_pregs:
            regfile = core.regfile_for(is_fp)
            if regfile.is_allocated(preg):
                regfile.free(preg)
        self._runahead_pregs.clear()
        core.poisoned_pregs.clear()
        core.exit_runahead(cycle)

        if self.use_emq and self.emq is not None:
            # Replay the micro-ops captured during runahead mode directly from
            # the EMQ: no re-fetch or re-decode is required (Section 3.3).
            entries = self.emq.drain()
            core.stats.events.emq_reads += len(entries)
            for entry in reversed(entries):
                entry.ready_cycle = cycle
                core.frontend.uop_queue.appendleft(entry)
        elif self._resume_seq is not None:
            # Without the EMQ the speculatively consumed micro-ops must be
            # fetched and decoded again.
            core.frontend.redirect(self._resume_seq, cycle)

        self._stalling_load = None
        self._rat_checkpoint = None
        self._resume_seq = None
        self._runahead_instrs = []

    # --------------------------------------------------------------- dispatch

    def runahead_dispatch(self, cycle: int) -> int:
        """Filter the decoded micro-op stream through the SST.

        The SST sits right after decode (Figure 1), so micro-ops that miss in
        it are discarded at the front-end delivery rate (up to ``fetch_width``
        per cycle) without consuming rename/dispatch bandwidth; only the
        SST hits are renamed and dispatched, at most ``pipeline_width`` per
        cycle.  This is what lets PRE run much further ahead than traditional
        runahead, which must rename and execute every fetched micro-op.
        """
        core = self.core
        assert core is not None and self.sst is not None and self.prdq is not None
        queue = core.frontend.uop_queue
        if not queue:
            return 0
        emq = self.emq if self.use_emq else None
        events = core.stats.events
        sst = self.sst
        slice_pcs = sst._entries
        limit = core.config.fetch_width
        if emq is not None:
            # Runahead depth is bounded by the EMQ, which buffers every
            # consumed micro-op: the core waits for the stalling load once
            # the queue fills up (Section 3.3).
            limit = min(limit, emq.capacity - len(emq))
        pipeline_width = core.config.pipeline_width
        consumed = 0
        dispatched_hits = 0
        while consumed < limit and queue:
            entry = queue[0]
            if entry.ready_cycle > cycle:
                break
            uop = entry.uop
            if uop.pc in slice_pcs:
                # A hit takes the full lookup (LRU update, slice learning).
                self._lookup_and_learn(uop)
                if dispatched_hits >= pipeline_width:
                    break
                if not self._can_dispatch_runahead(uop):
                    # Not enough free resources (issue queue, registers or
                    # PRDQ): stall runahead dispatch until some are reclaimed.
                    break
                queue.popleft()
                if emq is not None:
                    emq.append(entry)
                    events.emq_writes += 1
                self._record_runahead_instr(core.rename_and_dispatch(entry, True, False))
                dispatched_hits += 1
            else:
                # Most micro-ops are outside every slice: a miss only counts
                # its lookup, as :meth:`_lookup_and_learn` would.
                events.sst_lookups += 1
                sst.stats.lookups += 1
                queue.popleft()
                if emq is not None:
                    emq.append(entry)
                    events.emq_writes += 1
                if uop.is_branch:
                    self._discard_runahead_branch(entry, cycle)
            consumed += 1
        return consumed

    def _can_dispatch_runahead(self, uop: MicroOp) -> bool:
        core = self.core
        assert core is not None and self.prdq is not None
        if core.iq.is_full or self.prdq.is_full:
            return False
        if uop.dst is not None and core.regfile_for(is_fp_reg(uop.dst)).num_free == 0:
            return False
        return True

    def _record_runahead_instr(self, instr: "DynInstr") -> None:
        core = self.core
        assert core is not None and self.prdq is not None
        prev_preg = instr.prev_preg
        runahead_pregs = self._runahead_pregs
        self.prdq.allocate(
            instr,
            prev_preg,
            instr.dest_is_fp,
            prev_preg is not None and (instr.dest_is_fp, prev_preg) in runahead_pregs,
        )
        core.stats.events.prdq_writes += 1
        if instr.dest_preg is not None:
            runahead_pregs.add((instr.dest_is_fp, instr.dest_preg))
        self._runahead_instrs.append(instr)

    def _discard_runahead_branch(self, entry, cycle: int) -> None:
        """Resolve a branch that is dropped for not being part of any slice.

        Discarded branches are resolved immediately so that a mispredicted
        branch does not stall runahead fetch forever (the simulator never
        executes wrong-path instructions; see
        :class:`repro.uarch.frontend.FrontEnd`).  Other discarded micro-ops
        need no work.
        """
        core = self.core
        assert core is not None
        uop = entry.uop
        mispredicted = entry.predicted_taken != uop.branch_taken
        core.predictor.update(uop.pc, uop.branch_taken, entry.predicted_taken)
        core.frontend.branch_resolved(entry.seq, cycle, mispredicted)

    # ------------------------------------------------------------------ ticks

    def tick(self, cycle: int) -> int:
        core = self.core
        if core is None or self.prdq is None or core.mode != ExecutionMode.RUNAHEAD:
            return 0
        reclaimed = self.prdq.deallocate_ready(self._free_runahead_register)
        if reclaimed:
            core.stats.events.prdq_deallocations += reclaimed
        return reclaimed

    def _free_runahead_register(self, is_fp: bool, preg: int) -> None:
        core = self.core
        assert core is not None
        regfile = core.regfile_for(is_fp)
        if regfile.is_allocated(preg):
            regfile.free(preg)
        self._runahead_pregs.discard((is_fp, preg))
        core.poisoned_pregs.discard((is_fp, preg))

    # ---------------------------------------------------------------- queries

    def treat_poison_as_ready(self, instr: "DynInstr") -> bool:
        return instr.runahead

