"""The in-process simulation workloads: single-core cells and the two-core mix.

Each workload is a fixed list of cells; a cell is one simulation of one or
more ``(workload, variant, num_uops)`` cores.  A timed round runs every cell
twice through the public entry points (``run_simulation`` for one core,
``run_multicore`` for two):

* the *cold* operation builds the cell's traces from the seed, then
  simulates them: what a user pays for a cell nobody has run yet;
* the *warm* operation simulates the same, already-built traces again:
  what re-running a cell whose traces are in hand costs.

Both must commit every micro-op and repeat the digest the cell's first run
produced.  Before any timing, every (workload, variant) pair the workload
uses is re-run at the golden length with the registry's default inputs and
compared with ``tests/goldens/golden_stats.json``.
"""

from __future__ import annotations

import gc
import time
from typing import Dict, List, Sequence, Tuple

from repro.core import VARIANTS
from repro.energy.model import EnergyModel
from repro.registry import build_workload
from repro.simulation import SimulationRequest, run_multicore, run_simulation
from repro.simulation.golden import DEFAULT_GOLDEN_PATH, cell_key, load_goldens, stats_digest
from repro.workloads.spec_surrogates import SPEC_SURROGATES

import tracing
from report import Outcome, median

#: One core of a cell: (surrogate workload, variant, trace length in micro-ops).
Core = Tuple[str, str, int]

#: A workload's cells; each cell is a tuple of cores sharing one uncore.
Cells = Tuple[Tuple[Core, ...], ...]


def scaled(cells: Cells, scale: float) -> Cells:
    """The same cells with every trace ``scale`` times as long (at least 400)."""
    return tuple(
        tuple((name, variant, max(400, int(uops * scale))) for name, variant, uops in cell)
        for cell in cells
    )


WORKLOADS: Dict[str, Cells] = {
    # mcf is dependent pointer chasing (runahead finds little to prefetch but
    # spends most cycles in runahead mode); bwaves is a high-MLP gather.
    "runahead-memory-bound": tuple(
        ((name, variant, 4_000),) for name in ("mcf", "bwaves") for variant in VARIANTS
    ),
    # Four streaming or compute-heavy surrogates on the plain OoO core: no
    # controller, few stalls.
    "ooo-high-ipc": tuple(
        ((name, "ooo", 24_000),) for name in ("libquantum", "milc", "sphinx3", "lbm")
    ),
    # bwaves/pre as the focus core with an mcf/ooo neighbour.  mcf takes ~30x
    # more cycles per micro-op than bwaves, so its trace is that much shorter:
    # both cores then overlap for ~93% of the run instead of mcf running
    # alone for most of it.  The cell is kept short so that a run times
    # enough operations for a steady 90th percentile.
    "multicore-contention": ((("bwaves", "pre", 4_000), ("mcf", "ooo", 150)),),
}

#: Surrogates whose generator takes no seed (the registry's strided streams).
SEEDLESS = tuple(
    name for name, bench in SPEC_SURROGATES.items() if "seed" not in bench.spec.params
)


def build_trace(name: str, num_uops: int, seed: int):
    """A surrogate trace; ``seed`` replaces the generator's seed where it has one."""
    spec = SPEC_SURROGATES[name].spec
    if "seed" not in spec.params:
        trace = spec.build(num_uops=num_uops)
    else:
        trace = spec.build(num_uops=num_uops, seed=seed)
    trace.name = name
    return trace


def simulate(cell: Sequence[Core], traces: Sequence) -> Tuple[list, object]:
    """Run one cell through the public entry point; returns (core stats, result)."""
    if len(cell) == 1:
        result = run_simulation(traces[0], SimulationRequest(variant=cell[0][1]))
        return [result.stats], result
    result = run_multicore([(trace, core[1]) for trace, core in zip(traces, cell)])
    return [core.stats for core in result.cores], result


def uncore_attribution_ok(result) -> bool:
    """Per-core DRAM reads/writes of a multi-core result sum to the shared totals.

    The shared totals reach the result only through the focus core's DRAM
    energy, which the energy model bills from the shared DRAM counters.
    """
    if result.uncore is None:
        return True
    params = EnergyModel().parameters
    expected = (
        sum(result.uncore.dram_reads) * params.dram_access_pj
        + sum(result.uncore.dram_writes) * params.dram_write_pj
    ) / 1000.0
    return expected == result.energy.breakdown.dram_dynamic_nj


def golden_check(cells: Cells, outcome: Outcome, root) -> None:
    """Re-run the workload's (workload, variant) pairs at the golden length.

    Registry-default inputs, no seed.  Multi-core cells check each of their
    cores as a one-core ``run_multicore``, which must equal the single-core
    goldens bit for bit.
    """
    record = load_goldens(root / DEFAULT_GOLDEN_PATH)
    num_uops = record["num_uops"]
    for cell in cells:
        for name, variant, _ in cell:
            trace = build_workload(name, num_uops=num_uops)
            if len(cell) == 1:
                stats = run_simulation(trace, SimulationRequest(variant=variant)).stats
            else:
                stats = run_multicore([(trace, variant)]).stats
            golden = record["cells"][cell_key(name, variant)]["digest"]
            outcome.check(
                stats_digest(stats) == golden, f"golden {name}/{variant} digest diverged"
            )


class CellChecker:
    """Checks that an operation committed its traces and repeated the cell's digest."""

    def __init__(self, outcome: Outcome) -> None:
        self.outcome = outcome
        self.first: Dict[int, Tuple[str, ...]] = {}

    def check(self, index: int, traces: Sequence, all_stats: Sequence, result=None) -> bool:
        digests = tuple(stats_digest(stats) for stats in all_stats)
        expected = self.first.setdefault(index, digests)
        ok = all(stats.committed_uops == len(trace) for stats, trace in zip(all_stats, traces))
        ok = ok and digests == expected
        if result is not None:
            ok = ok and uncore_attribution_ok(result)
        return self.outcome.check(ok, f"cell {index} committed short or digest diverged")


def measure(name: str, seed: int, seconds: float, scale: float, outcome: Outcome, root) -> Dict:
    """Timed rounds with tracing off; returns the end-to-end figures.

    ``cold`` and ``warm`` map each cell's index to its operation times.
    A full collection runs before each operation, outside the timing, so
    one operation's garbage is not collected on the next one's clock.
    """
    cells = scaled(WORKLOADS[name], scale)
    golden_check(cells, outcome, root)
    checker = CellChecker(outcome)
    cold: Dict[int, List[float]] = {index: [] for index in range(len(cells))}
    warm: Dict[int, List[float]] = {index: [] for index in range(len(cells))}
    committed = 0
    busy = 0.0
    start = time.perf_counter()
    while not cold[0] or time.perf_counter() - start < seconds:
        for index, cell in enumerate(cells):
            gc.collect()
            began = time.perf_counter()
            traces = [build_trace(core, uops, seed) for core, _, uops in cell]
            all_stats, result = simulate(cell, traces)
            elapsed = time.perf_counter() - began
            cold[index].append(elapsed)
            busy += elapsed
            checker.check(index, traces, all_stats, result)

            gc.collect()
            began = time.perf_counter()
            all_stats, result = simulate(cell, traces)
            elapsed = time.perf_counter() - began
            warm[index].append(elapsed)
            busy += elapsed
            checker.check(index, traces, all_stats, result)
            committed += 2 * sum(stats.committed_uops for stats in all_stats)
    return {"sim_uops_per_s": committed / busy, "cold": cold, "warm": warm}


def measure_traced(name: str, seed: int, seconds: float, scale: float, outcome: Outcome) -> Dict:
    """Rounds of untraced-then-traced cells; returns per-round layer metrics.

    Times are medians over rounds of each round's total; counts are one
    round's totals (they repeat exactly).  The traced simulation of every
    cell must give the untraced run's digests.
    """
    cells = scaled(WORKLOADS[name], scale)
    checker = CellChecker(outcome)
    rounds: List[Dict[str, float]] = []
    untraced_total = traced_total = 0.0
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        spans = tracing.Spans()
        counter = tracing.SkipCounter()
        counts: Dict[str, float] = {}
        generated = 0
        for index, cell in enumerate(cells):
            gc.collect()
            began = time.perf_counter()
            traces = [build_trace(core, uops, seed) for core, _, uops in cell]
            all_stats, result = simulate(cell, traces)
            untraced_total += time.perf_counter() - began
            checker.check(index, traces, all_stats, result)

            gc.collect()
            began = time.perf_counter()
            build = spans.wrap("workloads.build", build_trace)
            traces = [build(core, uops, seed) for core, _, uops in cell]
            all_stats, cores, uncore = tracing.simulate_traced(
                spans, counter, [(trace, core[1]) for trace, core in zip(traces, cell)]
            )
            traced_total += time.perf_counter() - began
            checker.check(index, traces, all_stats)
            outcome.check(tracing.uncore_sums_match(uncore), "uncore attribution mismatch")
            generated += sum(len(trace) for trace in traces)
            for key, value in tracing.simulated_counts(all_stats, cores, uncore).items():
                counts[key] = counts.get(key, 0) + value
        per_round = tracing.layer_times(spans)
        per_round["workloads.build_s"] = spans.total("workloads.build")
        stepped = spans.calls("uarch.step")
        per_round["uarch.us_per_stepped_cycle"] = (
            spans.total("uarch.step") / stepped * 1e6 if stepped else 0.0
        )
        per_round["memory.access_data_calls"] = spans.calls("memory.access_data")
        per_round["memory.access_instruction_calls"] = spans.calls("memory.access_instruction")
        per_round["workloads.uops_generated"] = generated
        per_round["uarch.stepped_cycles"] = stepped
        per_round["uarch.skipped_cycles"] = counter.skipped
        per_round.update(counts)
        rounds.append(per_round)
    metrics = {key: median([entry[key] for entry in rounds]) for key in rounds[0]}
    committed = metrics.pop("uarch.committed_uops")
    metrics["uarch.ipc"] = committed / metrics["uarch.cycles"] if metrics["uarch.cycles"] else 0.0
    entries = metrics["core.runahead_entries"]
    metrics["core.prefetches_per_entry"] = (
        metrics["core.runahead_prefetches"] / entries if entries else 0.0
    )
    metrics["tracing.overhead_pct"] = (traced_total / untraced_total - 1.0) * 100.0
    return metrics
