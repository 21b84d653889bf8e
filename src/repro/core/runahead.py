"""Traditional runahead execution (RA).

Models the runahead proposal of Mutlu et al. [2], [6] as described in
Sections 2.2 and 5 of the paper:

* on a full-window stall the processor checkpoints architectural state and
  enters runahead mode (only if the estimated remaining miss latency exceeds a
  threshold — the short-interval optimisation of [6]);
* in runahead mode the whole pipeline keeps running: instructions dispatch,
  execute and *pseudo-retire* from the ROB without updating architectural
  state, and loads that miss are marked invalid (INV) so their dependents
  drain instead of blocking;
* every load executed in runahead mode acts as a prefetch;
* when the stalling load returns, the pipeline is flushed, the checkpoint is
  restored, and fetch restarts at the stalling load — the flush/refill
  overhead (~56 cycles for a 192-entry ROB, Section 2.4) emerges naturally
  from the model as the front-end and window refill.

The entry filter, the flush at exit and the poison rule are shared with the
runahead buffer (:mod:`repro.core.runahead_buffer`), which differs only in
what an interval does: :meth:`_begin_interval` and :meth:`_end_interval` are
its hooks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.base import RunaheadController
from repro.uarch.core import ExecutionMode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.memory.hierarchy import AccessResult
    from repro.uarch.core import DynInstr


class TraditionalRunaheadController(RunaheadController):
    """Runahead execution with the Mutlu et al. efficiency optimisations."""

    name = "runahead"
    pseudo_retire_in_runahead = True

    #: Consecutive useless (no-prefetch) intervals after which runahead entry
    #: is throttled, following the "useless period elimination" optimisation
    #: of Mutlu et al. [6].
    USELESS_STREAK_LIMIT = 3
    #: While throttled, only one stall in this many re-samples runahead mode.
    THROTTLE_SAMPLE_PERIOD = 16

    def __init__(self) -> None:
        super().__init__()
        self._stalling_load: Optional["DynInstr"] = None
        #: Prefetches issued in the current interval, for the useless-streak throttle.
        self._interval_prefetches = 0
        self._useless_streak = 0
        self._throttled_stalls = 0

    # ------------------------------------------------------------------ entry

    def on_full_window_stall(self, head: "DynInstr", cycle: int) -> None:
        core = self.core
        if core is None or core.mode == ExecutionMode.RUNAHEAD:
            return
        remaining = (head.completion_cycle or cycle) - cycle
        if remaining < core.config.runahead_minimum_interval:
            core.stats.runahead_entries_skipped_short += 1
            return
        if self._useless_streak >= self.USELESS_STREAK_LIMIT:
            # Recent runahead periods produced no prefetches (e.g. pure pointer
            # chasing): throttle entry, re-sampling occasionally to detect
            # phase changes.
            self._throttled_stalls += 1
            if self._throttled_stalls % self.THROTTLE_SAMPLE_PERIOD != 0:
                core.stats.runahead_entries_skipped_short += 1
                return
        if not self._begin_interval(head, cycle):
            return
        core.enter_runahead(cycle)
        self._interval_prefetches = 0
        self._stalling_load = head

    def _begin_interval(self, head: "DynInstr", cycle: int) -> bool:
        """Prepare an interval that passed the entry filter; ``False`` declines it."""
        return True

    # ------------------------------------------------------------------- exit

    def on_complete(self, instr: "DynInstr", cycle: int) -> None:
        core = self.core
        if core is None or core.mode != ExecutionMode.RUNAHEAD:
            return
        if instr is not self._stalling_load:
            return
        self._end_interval()
        core.flush_pipeline(instr.seq)
        core.exit_runahead(cycle)
        if self._interval_prefetches < 2:
            self._useless_streak += 1
        else:
            self._useless_streak = 0
            self._throttled_stalls = 0
        self._stalling_load = None

    def _end_interval(self) -> None:
        """Undo :meth:`_begin_interval` before the flush restarts fetch."""

    # --------------------------------------------------------------- dispatch

    def runahead_dispatch(self, cycle: int) -> int:
        """Dispatch future instructions speculatively, exactly like normal mode.

        The only difference from normal dispatch is that the instructions are
        marked as runahead instructions: their loads count as prefetches and
        the whole window is discarded at exit.
        """
        core = self.core
        assert core is not None
        queue = core.frontend.uop_queue
        width = core.config.pipeline_width
        core_cycle = core.cycle
        dispatched = 0
        while dispatched < width and queue:
            entry = queue[0]
            if entry.ready_cycle > core_cycle:
                break
            if not core.can_dispatch(entry.uop):
                break
            queue.popleft()
            core.rename_and_dispatch(entry, runahead=True, enter_rob=True)
            dispatched += 1
        return dispatched

    # ---------------------------------------------------------------- queries

    def treat_poison_as_ready(self, instr: "DynInstr") -> bool:
        core = self.core
        return core is not None and core.mode == ExecutionMode.RUNAHEAD

    def on_runahead_prefetch(self, instr: "DynInstr", result: "AccessResult", cycle: int) -> None:
        self._interval_prefetches += 1
