"""Outside-in tracing: spans around calls into each layer's public functions.

Nothing here reaches into ``src/``.  The traced run builds the simulator's
objects itself and wraps the public calls that cross a layer boundary:

* ``memory``: a :class:`PrivateHierarchy` subclass whose ``access_data`` and
  ``access_instruction`` are spans (one on a private one-core uncore for
  single-core cells, which is exactly what ``MemoryHierarchy`` builds; one per
  core on a shared :class:`SharedUncore` for multi-core cells);
* ``core``: the runahead controller's public hooks;
* ``uarch``: ``FrontEnd.tick`` and the core's public stepping API
  (``begin_run``/``step_cycle``/``next_wake_cycle``/``skip_to``/``finish_run``);
* ``simulation``: ``MultiCoreSimulator.run`` and the engine functions the
  service workload calls.

A span records its inclusive time and the time its child spans covered, so a
layer's self time is its spans' duration minus their children's.  Spans are
aggregated by name in memory (call count, inclusive, self), which keeps the
per-call cost to two clock reads and a few list operations.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

from repro.core import build_controller
from repro.energy.model import EnergyModel
from repro.memory.hierarchy import PrivateHierarchy, SharedUncore
from repro.simulation.multicore import DEFAULT_ADDRESS_STRIDE, MultiCoreSimulator
from repro.uarch.core import OoOCore, SimulationDeadlock
from repro.uarch.stats import CoreStats

#: Public controller hooks the core calls; each becomes a ``core.<hook>`` span.
CONTROLLER_HOOKS = (
    "on_full_window_stall",
    "on_complete",
    "on_decode",
    "on_runahead_prefetch",
    "runahead_dispatch",
    "tick",
    "next_wake_cycle",
    "treat_poison_as_ready",
)


class Spans:
    """Per-name span aggregates: calls, inclusive seconds and self seconds."""

    def __init__(self) -> None:
        #: name -> [calls, inclusive seconds, self seconds]
        self.records: Dict[str, List[float]] = {}
        # Child time covered so far, one slot per open span (slot 0 = root).
        self._open: List[float] = [0.0]

    def _record(self, name: str) -> List[float]:
        return self.records.setdefault(name, [0, 0.0, 0.0])

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span called ``name``.

        No ``try``/``finally``: an exception ends the traced run, so a span
        left open by one is never read.
        """
        open_spans = self._open
        record = self._record(name)
        clock = time.perf_counter

        def span(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            result = fn(*args, **kwargs)
            elapsed = clock() - start
            record[0] += 1
            record[1] += elapsed
            record[2] += elapsed - open_spans.pop()
            open_spans[-1] += elapsed
            return result

        return span

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around an inline block (for coarse, rarely-entered spans)."""
        record = self._record(name)
        self._open.append(0.0)
        start = time.perf_counter()
        yield
        elapsed = time.perf_counter() - start
        record[0] += 1
        record[1] += elapsed
        record[2] += elapsed - self._open.pop()
        self._open[-1] += elapsed

    def calls(self, name: str) -> int:
        return self.records.get(name, (0, 0.0, 0.0))[0]

    def total(self, name: str) -> float:
        """Inclusive seconds of every ``name`` span."""
        return self.records.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name: str) -> float:
        """Seconds of every ``name`` span not covered by a child span."""
        return self.records.get(name, (0, 0.0, 0.0))[2]

    def self_sum(self, prefix: str) -> float:
        """Summed self time of every span whose name starts with ``prefix``."""
        return sum(record[2] for name, record in self.records.items() if name.startswith(prefix))


class TracedHierarchy(PrivateHierarchy):
    """A private hierarchy whose two request entry points are spans."""

    def __init__(self, spans: Spans, **kwargs) -> None:
        super().__init__(**kwargs)
        # Instance attributes shadow the class methods, so the core's data
        # accesses and the front end's instruction port (which binds
        # ``access_instruction`` at construction) both go through the spans.
        self.access_data = spans.wrap("memory.access_data", super().access_data)
        self.access_instruction = spans.wrap(
            "memory.access_instruction", super().access_instruction
        )


def traced_core(spans: Spans, trace, variant: str, hierarchy: TracedHierarchy) -> OoOCore:
    """An ``OoOCore`` whose controller hooks and front-end tick are spans."""
    controller = build_controller(variant)
    if controller is not None:
        for hook in CONTROLLER_HOOKS:
            setattr(controller, hook, spans.wrap(f"core.{hook}", getattr(controller, hook)))
    core = OoOCore(trace, hierarchy=hierarchy, controller=controller)
    core.frontend.tick = spans.wrap("uarch.frontend", core.frontend.tick)
    return core


class SkipCounter:
    """Cycles fast-forwarded by ``skip_to`` across the traced cores."""

    def __init__(self) -> None:
        self.skipped = 0


def wrap_stepping(spans: Spans, core: OoOCore, counter: SkipCounter) -> None:
    """Make the core's public stepping calls spans, as a lockstep driver sees them.

    Every ``step_cycle`` call is one stepped cycle, so the ``uarch.step``
    span's call count is the stepped-cycle count.
    """
    next_wake = spans.wrap("uarch.skip", core.next_wake_cycle)
    skip_to = spans.wrap("uarch.skip", core.skip_to)

    def counted_skip(wake: int) -> None:
        counter.skipped += max(wake, core.cycle + 1) - core.cycle
        skip_to(wake)

    core.step_cycle = spans.wrap("uarch.step", core.step_cycle)
    core.next_wake_cycle = next_wake
    core.skip_to = counted_skip


def run_stepping(core: OoOCore) -> CoreStats:
    """Drive one core to completion through its public stepping API.

    The same sequence of calls ``OoOCore.run`` makes with no cycle budget
    and no warm-up, so the statistics are bit-identical to an untraced run.
    """
    core.begin_run()
    while not core.finished:
        if core.step_cycle():
            core.cycle += 1
            continue
        if core.finished:
            break
        wake = core.next_wake_cycle()
        if wake is None:
            raise SimulationDeadlock(core.deadlock_report())
        core.skip_to(wake)
    return core.finish_run()


def simulate_traced(
    spans: Spans,
    counter: SkipCounter,
    cells: Sequence[Tuple[object, str]],
) -> Tuple[List[CoreStats], List[OoOCore], SharedUncore]:
    """Simulate ``(trace, variant)`` pairs with every layer boundary traced.

    One pair runs on its own one-core uncore through :func:`run_stepping`;
    several pairs share one uncore and run under ``MultiCoreSimulator``,
    whose ``run`` is the ``simulation.lockstep`` span.  The focus core's
    energy is evaluated as ``energy.evaluate``.
    """
    uncore = SharedUncore(num_cores=len(cells))
    cores = []
    for core_id, (trace, variant) in enumerate(cells):
        hierarchy = TracedHierarchy(
            spans,
            uncore=uncore,
            core_id=core_id,
            addr_offset=core_id * DEFAULT_ADDRESS_STRIDE,
        )
        core = traced_core(spans, trace, variant, hierarchy)
        wrap_stepping(spans, core, counter)
        cores.append(core)
    if len(cores) == 1:
        with spans.span("uarch.run"):
            all_stats = [run_stepping(cores[0])]
    else:
        lockstep = spans.wrap("simulation.lockstep", MultiCoreSimulator(cores).run)
        all_stats = lockstep()
    focus = cores[0]
    with spans.span("energy.evaluate"):
        EnergyModel().evaluate(
            variant=cells[0][1],
            stats=all_stats[0],
            hierarchy=focus.hierarchy,
            config=focus.config,
        )
    return all_stats, cores, uncore


def uncore_sums_match(uncore: SharedUncore) -> bool:
    """Whether the per-core uncore attribution sums to the shared totals."""
    l3 = uncore.l3.stats
    dram = uncore.dram.stats
    return (
        sum(uncore.dram_reads) == dram.reads
        and sum(uncore.dram_writes) == dram.writes
        and sum(uncore.l3_misses) == l3.misses
        and sum(uncore.l3_hits) == l3.hits
    )


def layer_times(spans: Spans) -> Dict[str, float]:
    """Self seconds per simulator layer from one traced simulation."""
    return {
        "uarch.self_s": spans.self_time("uarch.run") + spans.self_time("uarch.step"),
        "uarch.frontend_s": spans.self_time("uarch.frontend"),
        "uarch.skip_s": spans.self_time("uarch.skip"),
        "core.controller_s": spans.self_sum("core."),
        "core.runahead_dispatch_s": spans.self_time("core.runahead_dispatch"),
        "core.tick_s": spans.self_time("core.tick"),
        "memory.access_data_s": spans.self_time("memory.access_data"),
        "memory.access_instruction_s": spans.self_time("memory.access_instruction"),
        "energy.evaluate_s": spans.self_time("energy.evaluate"),
        "simulation.lockstep_s": spans.self_time("simulation.lockstep"),
    }


def simulated_counts(
    all_stats: Sequence[CoreStats], cores: Sequence[OoOCore], uncore: SharedUncore
) -> Dict[str, float]:
    """Simulated-time counters of one traced simulation, summed over cores."""

    def total(field: str) -> int:
        return sum(getattr(stats, field) for stats in all_stats)

    return {
        "uarch.cycles": total("cycles"),
        "uarch.committed_uops": total("committed_uops"),
        "uarch.full_window_stall_cycles": total("full_window_stall_cycles"),
        "uarch.squashed_uops": sum(stats.events.squashed_uops for stats in all_stats),
        "core.runahead_entries": total("runahead_invocations"),
        "core.runahead_cycles": total("runahead_cycles"),
        "core.runahead_uops_executed": total("runahead_uops_executed"),
        "core.runahead_prefetches": total("runahead_prefetches"),
        "core.entries_skipped_short": total("runahead_entries_skipped_short"),
        "memory.l1d_misses": sum(core.hierarchy.l1d.stats.misses for core in cores),
        "memory.l2_misses": sum(core.hierarchy.l2.stats.misses for core in cores),
        "memory.l3_misses": uncore.l3.stats.misses,
        "memory.dram_reads": uncore.dram.stats.reads,
        "memory.dram_writes": uncore.dram.stats.writes,
        "memory.mshr_stalls": sum(core.hierarchy.stats.mshr_stalls for core in cores),
        "memory.dram_queue_delay_cycles": sum(uncore.dram_queue_delay_cycles),
        "memory.bus_busy_cycles": sum(uncore.bus_busy_cycles),
    }
