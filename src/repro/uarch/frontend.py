"""Front-end: fetch, decode and the micro-op queue.

The front-end is modelled as an 8-stage pipeline (Table 1) that fetches up to
``fetch_width`` micro-ops per cycle from the dynamic micro-op stream, predicts
branches, and delivers decoded micro-ops into the micro-op queue from which
the rename stage dispatches.

The stream is consumed through a :class:`~repro.workloads.trace.TraceSource`
cursor: sequential reads pull micro-ops on demand, and pipeline flushes rewind
to any not-yet-committed index (the cursor retains that window, plus any
micro-ops a controller read ahead of fetch, so streaming workloads run at
O(window) memory).  An in-memory
:class:`~repro.workloads.trace.Trace` is a source too and is read the same way.

Because the simulator is trace-driven there is no wrong path: a mispredicted
branch instead stalls fetch until the branch resolves, after which fetch
resumes and the refilled front-end pipeline naturally charges the redirect
latency.  The Extended Micro-op Queue optimisation (PRE+EMQ) and the runahead
buffer's front-end power gating both plug in through small hooks
(:attr:`power_gated` and :meth:`redirect`).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.memory.port import InstructionPort
from repro.uarch.branch import GShareBranchPredictor
from repro.uarch.config import CoreConfig
from repro.uarch.stats import CoreStats
from repro.workloads.trace import MicroOp, TraceSource


class FetchedUop:
    """A micro-op travelling through (or waiting after) the front-end.

    A ``__slots__`` class (one is created per fetched micro-op, on the
    per-cycle fetch path); equality is identity.
    """

    __slots__ = ("seq", "uop", "ready_cycle", "predicted_taken")

    def __init__(
        self, seq: int, uop: MicroOp, ready_cycle: int, predicted_taken: bool = False
    ) -> None:
        self.seq = seq
        self.uop = uop
        self.ready_cycle = ready_cycle
        self.predicted_taken = predicted_taken

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FetchedUop(seq={self.seq}, uop={self.uop!r}, "
            f"ready_cycle={self.ready_cycle}, predicted_taken={self.predicted_taken})"
        )


class FrontEnd:
    """Fetch/decode pipeline plus the micro-op queue."""

    def __init__(
        self,
        trace: TraceSource,
        config: CoreConfig,
        predictor: GShareBranchPredictor,
        port: Optional[InstructionPort] = None,
        stats: Optional[CoreStats] = None,
    ) -> None:
        self.source = trace
        self.cursor = trace.cursor()
        self.config = config
        self.predictor = predictor
        #: Instruction-side memory port — the *only* piece of the memory
        #: system the front end sees (fetch-line geometry plus
        #: ``access_instruction``).  ``None`` models an ideal I-cache.
        self.port = port
        self.stats = stats or CoreStats()
        self.fetch_index = 0
        self.power_gated = False
        self._pipe: Deque[FetchedUop] = deque()
        self.uop_queue: Deque[FetchedUop] = deque()
        self._stalled_on_branch_seq: Optional[int] = None
        self._resume_cycle = 0
        self._last_fetch_line: Optional[int] = None
        # Geometry read on every fetch and delivery, captured once.
        self._fetch_width = config.fetch_width
        self._depth = config.frontend_depth
        self._queue_size = config.uop_queue_size
        #: Micro-ops the pipeline stages hold, and with the queue in total.
        self._pipe_capacity = config.fetch_width * config.frontend_depth
        self._total_capacity = self._pipe_capacity + config.uop_queue_size
        self._line_bytes = port.line_bytes if port is not None else None

    # -------------------------------------------------------------- queries

    @property
    def trace_exhausted(self) -> bool:
        """Whether every trace micro-op has been fetched."""
        return not self.cursor.has(self.fetch_index)

    def next_dispatch_seq(self) -> Optional[int]:
        """Trace index of the next micro-op normal dispatch would consume.

        PRE records this at runahead entry so that, on exit without the EMQ
        optimisation, fetch can be redirected back to the first micro-op that
        was consumed speculatively and must be re-fetched (Section 3.3).
        """
        if self.uop_queue:
            return self.uop_queue[0].seq
        if self._pipe:
            return self._pipe[0].seq
        if not self.trace_exhausted:
            return self.fetch_index
        return None

    def earliest_delivery_cycle(self) -> Optional[int]:
        """Cycle at which the oldest in-flight micro-op reaches the micro-op queue."""
        if self._pipe:
            return self._pipe[0].ready_cycle
        return None

    def next_resume_cycle(self) -> Optional[int]:
        """Cycle at which stalled fetch resumes, or ``None`` when fetch has
        nothing left to do (trace exhausted).

        This is the public wake-up candidate the core's idle-skip logic
        consults; it covers redirect penalties, mispredict stalls and
        MSHR-full instruction-fetch waits.
        """
        if self.trace_exhausted:
            return None
        return self._resume_cycle

    # ----------------------------------------------------------------- ticks

    def tick(self, cycle: int) -> int:
        """Advance the front-end by one cycle; return the number of micro-ops moved."""
        moved = self._deliver(cycle)
        moved += self._fetch(cycle)
        return moved

    def _deliver(self, cycle: int) -> int:
        """Move decoded micro-ops whose pipeline delay has elapsed into the micro-op queue."""
        pipe = self._pipe
        if not pipe or pipe[0].ready_cycle > cycle:
            return 0
        queue = self.uop_queue
        limit = min(self._queue_size - len(queue), len(pipe))
        delivered = 0
        while delivered < limit and pipe[0].ready_cycle <= cycle:
            queue.append(pipe.popleft())
            delivered += 1
        self.stats.events.decoded_uops += delivered
        return delivered

    def _fetch(self, cycle: int) -> int:
        """Fetch up to ``fetch_width`` micro-ops from the trace into the pipeline."""
        if self.power_gated or cycle < self._resume_cycle:
            return 0
        if self._stalled_on_branch_seq is not None:
            return 0
        pipe = self._pipe
        # The pipe and queue only grow inside this loop, so the room left in
        # both bounds the fetch count up front.
        budget = min(
            self._fetch_width,
            self._pipe_capacity - len(pipe),
            self._total_capacity - len(pipe) - len(self.uop_queue),
        )
        if budget <= 0:
            return 0
        cursor_fetch = self.cursor.fetch
        line_bytes = self._line_bytes
        ready_base = cycle + self._depth
        fetch_index = self.fetch_index
        last_line = self._last_fetch_line
        fetched = 0
        while fetched < budget:
            uop = cursor_fetch(fetch_index)
            if uop is None:
                break
            # Same-line fast path of _instruction_fetch_penalty, inlined:
            # consecutive micro-ops overwhelmingly share a fetch line.
            if line_bytes is None or uop.pc // line_bytes == last_line:
                penalty = 0
            else:
                penalty = self._instruction_fetch_penalty(uop.pc, cycle)
                last_line = self._last_fetch_line
                if penalty is None:
                    # MSHR file full: fetch stalls (``_resume_cycle`` was
                    # pushed out) and this micro-op is retried after the wait.
                    break
            fetched += 1
            if uop.is_branch:
                predicted = self.predictor.predict(uop.pc)
                self.stats.events.branch_predictions += 1
                pipe.append(FetchedUop(fetch_index, uop, ready_base + penalty, predicted))
                fetch_index += 1
                if predicted != uop.branch_taken:
                    self._stalled_on_branch_seq = fetch_index - 1
                    break
            else:
                pipe.append(FetchedUop(fetch_index, uop, ready_base + penalty))
                fetch_index += 1
        self.fetch_index = fetch_index
        self.stats.events.fetched_uops += fetched
        return fetched

    def _instruction_fetch_penalty(self, pc: int, cycle: int) -> Optional[int]:
        """Extra cycles for instruction-cache misses (rare for loopy workloads).

        Returns ``None`` when the access could not start (MSHR file full): the
        caller must stall fetch — ``_resume_cycle`` is advanced past the
        estimated wait — and retry the micro-op afterwards.
        """
        port = self.port
        if port is None:
            return 0
        line = pc // port.line_bytes
        if line == self._last_fetch_line:
            return 0
        self._last_fetch_line = line
        result = port.access_instruction(pc, cycle)
        if result.retried:
            self._last_fetch_line = None
            self._resume_cycle = max(self._resume_cycle, cycle + max(1, result.latency))
            return None
        return max(0, result.latency - port.latency)

    # ------------------------------------------------------------- redirects

    def branch_resolved(self, seq: int, cycle: int, mispredicted: bool) -> None:
        """Notify the front-end that the branch with sequence number ``seq`` executed."""
        if self._stalled_on_branch_seq == seq:
            self._stalled_on_branch_seq = None
            if mispredicted:
                self._resume_cycle = cycle + 1
                self.stats.events.branch_mispredictions += 1

    def redirect(self, new_index: int, cycle: int) -> None:
        """Squash the front-end and restart fetch at trace index ``new_index``.

        Used by pipeline flushes (runahead exit of RA and RA-buffer, which
        refetch from the stalling load) and by PRE's exit without the EMQ
        (refetch of the micro-ops consumed during runahead mode).
        """
        self._pipe.clear()
        self.uop_queue.clear()
        self._stalled_on_branch_seq = None
        self.fetch_index = new_index
        self._resume_cycle = cycle + 1
        self._last_fetch_line = None
