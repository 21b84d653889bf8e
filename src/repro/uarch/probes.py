"""Pluggable instrumentation probes.

The core publishes a small set of semantic events and registered observers
consume them.  The core's own :class:`~repro.uarch.stats.CoreStats` is the
always-on, fixed-size accounting the timing and energy models and the
paper's section statistics read: counters, runahead-interval length bins and
free-resource sums at full-window stalls.  Everything per-event — IPC
timelines, stall breakdowns, per-interval runahead logs, memory-level
profiles — is a :class:`Probe`.  No probe runs by default: each is attached
per run, selected by registry name from
:class:`~repro.simulation.engine.ExperimentEngine` or the ``--probe`` CLI
flag, and reports arbitrary JSON-able data into
:attr:`~repro.simulation.simulator.SimulationResult.probe_reports`.

Probe lifecycle and hooks
-------------------------
``on_attach`` fires once when the core is constructed; ``on_finish`` once when
the run completes.  In between the core emits:

* ``on_measurement_start(core, cycle)`` — a run with a warmup prefix crossed
  into its measured window and ``core.stats`` was just zeroed; a probe drops
  what it recorded before, so its report covers what the stats cover;
* ``on_cycle(core, cycle)`` — once per *executed* cycle;
* ``on_cycles_skipped(core, start, end)`` — when the idle-skip optimisation
  fast-forwards the clock over the ``end - start`` cycles in ``[start, end)``
  (no state changes inside; the cycle before ``start`` already fired
  ``on_cycle``);
* ``on_commit(core, instr, cycle)`` — an instruction retired architecturally;
* ``on_runahead_enter/on_runahead_exit(core, cycle)`` — runahead mode
  transitions;
* ``on_mem_access(core, instr, result, cycle)`` — a load issued to or a store
  committed into the data memory hierarchy (``result`` is the
  :class:`~repro.memory.hierarchy.AccessResult`);
* ``on_fill(core, level, line_addr, cycle)`` — a fill transaction completed
  and installed ``line_addr`` into cache ``level`` (fills land when their
  latency elapses, not when the miss issues);
* ``on_writeback(core, level, line_addr, cycle)`` — a dirty victim left
  ``level`` for the next level down (the last hop is a DRAM write);
* ``on_full_window_stall(core, instr, cycle)`` — a new full-window stall began
  behind long-latency load ``instr``.

Hook dispatch is pay-as-you-go: :class:`ProbeSet` indexes which probes
override which hook, so runs without probes skip the plumbing entirely.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional

from repro.registry import PROBE_REGISTRY, register_probe

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.memory.hierarchy import AccessResult
    from repro.uarch.core import DynInstr, OoOCore
    from repro.uarch.stats import CoreStats


class Probe:
    """Base class for instrumentation probes; every hook defaults to a no-op."""

    #: Registry/report key for this probe.
    name = "probe"

    def on_attach(self, core: "OoOCore") -> None:
        """The probe was attached to ``core`` (before the first cycle)."""

    def on_measurement_start(self, core: "OoOCore", cycle: int) -> None:
        """The warmup ended at ``cycle`` and the statistics were zeroed."""

    def on_cycle(self, core: "OoOCore", cycle: int) -> None:
        """One pipeline cycle executed."""

    def on_cycles_skipped(self, core: "OoOCore", start: int, end: int) -> None:
        """The idle-skip optimisation advanced the clock from ``start`` to ``end``."""

    def on_commit(self, core: "OoOCore", instr: "DynInstr", cycle: int) -> None:
        """``instr`` committed architecturally."""

    def on_runahead_enter(self, core: "OoOCore", cycle: int) -> None:
        """The core entered runahead mode."""

    def on_runahead_exit(self, core: "OoOCore", cycle: int) -> None:
        """The core returned to normal mode."""

    def on_mem_access(
        self, core: "OoOCore", instr: "DynInstr", result: "AccessResult", cycle: int
    ) -> None:
        """A data-memory access was performed for ``instr``."""

    def on_fill(self, core: "OoOCore", level: str, line_addr: int, cycle: int) -> None:
        """A completed fill installed ``line_addr`` into cache ``level``."""

    def on_writeback(self, core: "OoOCore", level: str, line_addr: int, cycle: int) -> None:
        """A dirty victim of ``level`` was written back to the next level down."""

    def on_full_window_stall(self, core: "OoOCore", instr: "DynInstr", cycle: int) -> None:
        """A new full-window stall began behind long-latency load ``instr``."""

    def on_finish(self, core: "OoOCore", stats: "CoreStats") -> None:
        """The run completed; ``stats`` is the final record."""

    def report(self) -> Optional[Any]:
        """JSON-able findings for :attr:`SimulationResult.probe_reports`.

        Return ``None`` (the default) to stay out of the result record.
        """
        return None


#: Hook names indexed by :class:`ProbeSet` (on_attach/on_finish always fire).
_HOOKS = (
    "on_measurement_start",
    "on_cycle",
    "on_cycles_skipped",
    "on_commit",
    "on_runahead_enter",
    "on_runahead_exit",
    "on_mem_access",
    "on_fill",
    "on_writeback",
    "on_full_window_stall",
)


class ProbeSet:
    """Dispatches core events to the subset of probes that observe each hook."""

    def __init__(self, probes: Iterable[Probe] = ()) -> None:
        self.all: List[Probe] = list(probes)
        for hook in _HOOKS:
            base = getattr(Probe, hook)
            interested = [
                probe for probe in self.all if getattr(type(probe), hook) is not base
            ]
            setattr(self, hook.replace("on_", "", 1), interested)

    def __len__(self) -> int:
        return len(self.all)

    def attach(self, core: "OoOCore") -> None:
        for probe in self.all:
            probe.on_attach(core)

    def finish(self, core: "OoOCore", stats: "CoreStats") -> None:
        for probe in self.all:
            probe.on_finish(core, stats)

    def reports(self) -> Dict[str, Any]:
        """Collected non-``None`` reports keyed by probe name."""
        collected: Dict[str, Any] = {}
        for probe in self.all:
            report = probe.report()
            if report is not None:
                collected[probe.name] = report
        return collected


# -------------------------------------------------------------- built-in probes


@register_probe("ipc_timeline", description="sampled (cycle, committed uops) IPC timeline")
def _build_ipc_timeline() -> "IPCTimelineProbe":
    return IPCTimelineProbe()


class IPCTimelineProbe(Probe):
    """Sample committed-instruction progress over time.

    Report: ``{"period": N, "samples": [[cycle, committed_uops], ...]}`` —
    enough to plot an IPC-over-time curve or locate phase changes.  Cycles
    count from the start of the measured window, as ``stats.cycles`` does.
    """

    name = "ipc_timeline"

    def __init__(self, period: int = 1_000) -> None:
        if period <= 0:
            raise ValueError("period must be positive")
        self.period = period
        self.samples: List[List[int]] = []
        self._next_sample = 0
        self._cycle_base = 0

    def _sample(self, core: "OoOCore", cycle: int) -> None:
        self.samples.append([cycle - self._cycle_base, core.stats.committed_uops])
        self._next_sample = cycle + self.period

    def on_measurement_start(self, core: "OoOCore", cycle: int) -> None:
        self.samples = []
        self._cycle_base = cycle
        self._sample(core, cycle)

    def on_cycle(self, core: "OoOCore", cycle: int) -> None:
        if cycle >= self._next_sample:
            self._sample(core, cycle)

    def on_cycles_skipped(self, core: "OoOCore", start: int, end: int) -> None:
        # No commits happen inside a skipped span; one sample at its end
        # keeps the timeline's cadence without fabricating intermediate data.
        if end >= self._next_sample:
            self._sample(core, end)

    def on_finish(self, core: "OoOCore", stats: "CoreStats") -> None:
        if not self.samples or self.samples[-1][0] != stats.cycles:
            self.samples.append([stats.cycles, stats.committed_uops])

    def report(self) -> Dict[str, Any]:
        return {"period": self.period, "samples": self.samples}


@register_probe("stall_breakdown", description="cycles classified by pipeline state")
def _build_stall_breakdown() -> "StallBreakdownProbe":
    return StallBreakdownProbe()


class StallBreakdownProbe(Probe):
    """Classify every simulated cycle by what the pipeline was doing.

    Categories: ``runahead`` (speculative pre-execution), ``full_window_stall``
    (ROB full behind a long-latency load, not in runahead),
    ``frontend_starved`` (window empty), and ``busy`` (everything else).
    Report: cycle counts plus fractions.
    """

    name = "stall_breakdown"

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {
            "busy": 0,
            "full_window_stall": 0,
            "runahead": 0,
            "frontend_starved": 0,
        }

    def _classify(self, core: "OoOCore") -> str:
        # Imported lazily: core imports this module at load time.
        from repro.uarch.core import ExecutionMode

        if core.mode == ExecutionMode.RUNAHEAD:
            return "runahead"
        if core.in_full_window_stall:
            return "full_window_stall"
        if len(core.rob) == 0:
            return "frontend_starved"
        return "busy"

    def on_measurement_start(self, core: "OoOCore", cycle: int) -> None:
        for key in self.counts:
            self.counts[key] = 0

    def on_cycle(self, core: "OoOCore", cycle: int) -> None:
        self.counts[self._classify(core)] += 1

    def on_cycles_skipped(self, core: "OoOCore", start: int, end: int) -> None:
        # State is frozen across a skipped span, so the whole span shares the
        # classification at its start.
        self.counts[self._classify(core)] += end - start

    def report(self) -> Dict[str, Any]:
        total = sum(self.counts.values())
        return {
            "cycles": dict(self.counts),
            "fractions": {
                key: (value / total if total else 0.0)
                for key, value in self.counts.items()
            },
        }


@register_probe("runahead_log", description="per-interval runahead entry/exit log")
def _build_runahead_log() -> "RunaheadIntervalLogProbe":
    return RunaheadIntervalLogProbe()


class RunaheadIntervalLogProbe(Probe):
    """Log every runahead interval with its prefetch yield.

    Report: a list of ``{"entry": c0, "exit": c1, "length": c1-c0,
    "prefetches": n}`` records (Section 2.4 / 5.1 style interval data as a
    selectable artifact rather than a core-internal list).
    """

    name = "runahead_log"

    def __init__(self) -> None:
        self.entries: List[Dict[str, int]] = []
        self._prefetches_at_entry = 0

    def on_measurement_start(self, core: "OoOCore", cycle: int) -> None:
        # An interval open across the boundary is dropped with the rest,
        # as the stats drop it: its exit then finds no open record.
        self.entries = []

    def on_runahead_enter(self, core: "OoOCore", cycle: int) -> None:
        self._prefetches_at_entry = core.stats.runahead_prefetches
        self.entries.append({"entry": cycle, "exit": -1, "length": 0, "prefetches": 0})

    def on_runahead_exit(self, core: "OoOCore", cycle: int) -> None:
        if not self.entries or self.entries[-1]["exit"] >= 0:
            return
        record = self.entries[-1]
        record["exit"] = cycle
        record["length"] = cycle - record["entry"]
        record["prefetches"] = core.stats.runahead_prefetches - self._prefetches_at_entry

    def report(self) -> List[Dict[str, int]]:
        return list(self.entries)


@register_probe("mem_profile", description="data accesses per memory level")
def _build_mem_profile() -> "MemoryProfileProbe":
    return MemoryProfileProbe()


class MemoryProfileProbe(Probe):
    """Profile the memory system: accesses by servicing level, plus the fill
    and writeback traffic the fill-on-completion hierarchy emits.

    Report: ``{"levels": {"L1D": n, ...}, "long_latency": n, "total": n,
    "fills": {"L1D": n, ...}, "writebacks": {"L1D": n, ..., "DRAM": n}}`` —
    ``fills`` counts completed line installs per cache level, ``writebacks``
    counts dirty victims leaving each level (the ``"DRAM"`` key is the final
    hop: posted main-memory writes).
    """

    name = "mem_profile"

    def __init__(self) -> None:
        self.levels: Dict[str, int] = {}
        self.long_latency = 0
        self.total = 0
        self.fills: Dict[str, int] = {}
        self.writebacks: Dict[str, int] = {}
        #: DRAM writes already done when the measured window began.
        self._dram_writes_base = 0

    def on_measurement_start(self, core: "OoOCore", cycle: int) -> None:
        self.levels = {}
        self.long_latency = 0
        self.total = 0
        self.fills = {}
        self.writebacks = {}
        self._dram_writes_base = core.hierarchy.dram.stats.writes

    def on_mem_access(
        self, core: "OoOCore", instr: "DynInstr", result: "AccessResult", cycle: int
    ) -> None:
        level = result.level.value
        self.levels[level] = self.levels.get(level, 0) + 1
        if result.is_long_latency:
            self.long_latency += 1
        self.total += 1

    def on_fill(self, core: "OoOCore", level: str, line_addr: int, cycle: int) -> None:
        self.fills[level] = self.fills.get(level, 0) + 1

    def on_writeback(self, core: "OoOCore", level: str, line_addr: int, cycle: int) -> None:
        self.writebacks[level] = self.writebacks.get(level, 0) + 1

    def on_finish(self, core: "OoOCore", stats: "CoreStats") -> None:
        # DRAM writes are the terminal hop of every writeback chain; surface
        # them next to the per-cache-level counts.
        writes = core.hierarchy.dram.stats.writes - self._dram_writes_base
        if writes:
            self.writebacks["DRAM"] = writes

    def report(self) -> Dict[str, Any]:
        return {
            "levels": dict(sorted(self.levels.items())),
            "long_latency": self.long_latency,
            "total": self.total,
            "fills": dict(sorted(self.fills.items())),
            "writebacks": dict(sorted(self.writebacks.items())),
        }


def build_probe(name_or_probe) -> Probe:
    """Resolve a probe argument: registry name -> fresh instance, instance -> itself."""
    if isinstance(name_or_probe, Probe):
        return name_or_probe
    return PROBE_REGISTRY.create(name_or_probe)


__all__ = [
    "IPCTimelineProbe",
    "MemoryProfileProbe",
    "Probe",
    "ProbeSet",
    "RunaheadIntervalLogProbe",
    "StallBreakdownProbe",
    "build_probe",
]
