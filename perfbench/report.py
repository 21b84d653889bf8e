"""Result bookkeeping shared by the workloads: checks, percentiles, units."""

from __future__ import annotations

import statistics
import sys
from typing import Dict, List, Sequence


class Outcome:
    """Operations attempted and failed; a failed check is a failed operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, ok: bool, problem: str) -> bool:
        """Count one checked operation; record ``problem`` when it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)
            print(f"check failed: {problem}", file=sys.stderr)
        return ok


def median(values: Sequence[float]) -> float:
    """The median of a non-empty sequence."""
    return statistics.median(values)


def p90(values: Sequence[float]) -> float:
    """The 90th percentile (``statistics.quantiles``), or the value for one sample."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[8]


#: Unit of every metric the benchmark reports, end to end and per layer.
UNITS: Dict[str, str] = {
    "setup_s": "s",
    "sim_uops_per_s": "uops/s",
    "cold_job_s.p50": "s",
    "warm_job_s.p50": "s",
    "warm_job_s.p90": "s",
    "peak_rss_mb": "MB",
    "workloads.build_s": "s/round",
    "workloads.uops_generated": "count/round",
    "uarch.self_s": "s/round",
    "uarch.frontend_s": "s/round",
    "uarch.skip_s": "s/round",
    "uarch.stepped_cycles": "count/round",
    "uarch.skipped_cycles": "count/round",
    "uarch.us_per_stepped_cycle": "us",
    "uarch.cycles": "cycles/round",
    "uarch.ipc": "uops/cycle",
    "uarch.full_window_stall_cycles": "cycles/round",
    "uarch.squashed_uops": "count/round",
    "core.controller_s": "s/round",
    "core.runahead_dispatch_s": "s/round",
    "core.tick_s": "s/round",
    "core.runahead_entries": "count/round",
    "core.runahead_cycles": "cycles/round",
    "core.runahead_uops_executed": "count/round",
    "core.runahead_prefetches": "count/round",
    "core.entries_skipped_short": "count/round",
    "core.prefetches_per_entry": "ratio",
    "memory.access_data_s": "s/round",
    "memory.access_data_calls": "count/round",
    "memory.access_instruction_s": "s/round",
    "memory.access_instruction_calls": "count/round",
    "memory.l1d_misses": "count/round",
    "memory.l2_misses": "count/round",
    "memory.l3_misses": "count/round",
    "memory.dram_reads": "count/round",
    "memory.dram_writes": "count/round",
    "memory.mshr_stalls": "count/round",
    "memory.dram_queue_delay_cycles": "cycles/round",
    "memory.bus_busy_cycles": "cycles/round",
    "energy.evaluate_s": "s/round",
    "simulation.execute_s": "s/round",
    "simulation.serde_s": "s/round",
    "simulation.cache_put_s": "s/round",
    "simulation.cells_simulated": "count/round",
    "simulation.expand_s": "s/round",
    "simulation.cache_key_s": "s/round",
    "simulation.cache_get_s": "s/round",
    "simulation.cache_hits": "count/round",
    "simulation.lockstep_s": "s/round",
    "service.admit_s.p50": "s",
    "service.queue_s.p50": "s",
    "service.result_fetch_s.p50": "s",
    "service.result_bytes": "bytes",
    "service.journal_bytes_per_job": "bytes",
    "tracing.overhead_pct": "%",
}

END_TO_END = (
    "setup_s",
    "sim_uops_per_s",
    "cold_job_s.p50",
    "warm_job_s.p50",
    "warm_job_s.p90",
    "peak_rss_mb",
)

PER_LAYER = tuple(name for name in UNITS if name not in END_TO_END)
