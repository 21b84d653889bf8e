"""Execution statistics collected by the core.

``CoreStats`` is the single record every experiment consumes: cycle and
micro-op counts for IPC, full-window-stall accounting, runahead-interval
summaries (needed for the Section 2.4 and 5.1 statistics), free-resource sums
at full-window stalls (Section 3.4), and the per-structure event counts the
energy model multiplies by per-access energies.  Every field has a fixed
size, so a record does not grow with run length; per-interval data comes from
the opt-in ``runahead_log`` probe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.serde import JSONSerializable

#: Upper edges (exclusive, in cycles) of the runahead-interval length bins;
#: one last open-ended bin holds the intervals of 500 cycles or more.
INTERVAL_BIN_EDGES = (20, 50, 100, 200, 500)


@dataclass
class EventCounts(JSONSerializable):
    """Per-structure dynamic event counts used by the energy model."""

    fetched_uops: int = 0
    decoded_uops: int = 0
    renamed_uops: int = 0
    dispatched_uops: int = 0
    issued_uops: int = 0
    executed_uops: int = 0
    committed_uops: int = 0
    pseudo_retired_uops: int = 0
    squashed_uops: int = 0
    regfile_reads: int = 0
    regfile_writes: int = 0
    rob_writes: int = 0
    rob_reads: int = 0
    iq_writes: int = 0
    iq_wakeups: int = 0
    lsq_accesses: int = 0
    branch_predictions: int = 0
    branch_mispredictions: int = 0
    sst_lookups: int = 0
    sst_hits: int = 0
    sst_inserts: int = 0
    prdq_writes: int = 0
    prdq_deallocations: int = 0
    emq_writes: int = 0
    emq_reads: int = 0
    runahead_buffer_reads: int = 0
    runahead_buffer_writes: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Return all counters as a plain dictionary."""
        return dict(self.__dict__)


@dataclass
class CoreStats(JSONSerializable):
    """Aggregate statistics of one simulation run."""

    cycles: int = 0
    committed_uops: int = 0
    committed_loads: int = 0
    committed_stores: int = 0

    full_window_stalls: int = 0
    full_window_stall_cycles: int = 0

    runahead_invocations: int = 0
    runahead_cycles: int = 0
    runahead_uops_executed: int = 0
    runahead_prefetches: int = 0
    runahead_entries_skipped_short: int = 0
    pipeline_flushes: int = 0
    #: Summed length, in cycles, of the closed runahead intervals.
    runahead_interval_cycles: int = 0
    #: Closed runahead intervals per length bin of ``INTERVAL_BIN_EDGES``.
    runahead_interval_bins: List[int] = field(
        default_factory=lambda: [0] * (len(INTERVAL_BIN_EDGES) + 1)
    )

    long_latency_loads: int = 0
    loads_hit_under_prefetch: int = 0

    #: Free IQ, int-RF and fp-RF fractions, summed over full-window stalls.
    stall_free_iq_sum: float = 0.0
    stall_free_int_reg_sum: float = 0.0
    stall_free_fp_reg_sum: float = 0.0

    events: EventCounts = field(default_factory=EventCounts)

    @property
    def ipc(self) -> float:
        """Committed micro-ops per cycle."""
        return self.committed_uops / self.cycles if self.cycles else 0.0

    @property
    def average_interval_length(self) -> float:
        """Mean closed runahead-interval length in cycles."""
        closed = sum(self.runahead_interval_bins)
        return self.runahead_interval_cycles / closed if closed else 0.0

    def short_interval_fraction(self) -> float:
        """Fraction of closed runahead intervals shorter than 20 cycles (Section 2.4)."""
        closed = sum(self.runahead_interval_bins)
        return self.runahead_interval_bins[0] / closed if closed else 0.0

    def mean_free_resources(self) -> Dict[str, float]:
        """Mean free IQ/int-RF/fp-RF fractions observed at full-window stalls (Section 3.4)."""
        count = self.full_window_stalls
        if not count:
            return {"iq": 0.0, "int_regs": 0.0, "fp_regs": 0.0}
        return {
            "iq": self.stall_free_iq_sum / count,
            "int_regs": self.stall_free_int_reg_sum / count,
            "fp_regs": self.stall_free_fp_reg_sum / count,
        }
