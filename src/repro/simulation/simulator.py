"""Simulation entry points: one core, or N cores sharing an uncore.

:func:`run_simulation` runs one (trace, variant) pair as a
:class:`SimulationRequest` describes; ``run_multicore`` runs several side by
side.  Both share one set-up path: fresh hierarchies and cores, the
lockstep loop, energy, and a :class:`SimulationResult`.

Workloads are accepted either as an in-memory
:class:`~repro.workloads.trace.Trace` (the original, backward-compatible
path) or as any :class:`~repro.workloads.source.TraceSource` — streaming
generator, recorded trace file, SimPoint window — which the core consumes
lazily.  Instrumentation probes (registry names or
:class:`~repro.uarch.probes.Probe` instances) can be attached per run; their
findings land in :attr:`SimulationResult.probe_reports`.

:func:`run_simpoints` is the SimPoint execution path the paper's methodology
implies: cluster a workload's intervals, run only the representative windows
as engine jobs, and report weighted whole-trace statistics.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core import VARIANT_LABELS, build_controller
from repro.core.pre import PreciseRunaheadController
from repro.core.runahead_buffer import RunaheadBufferController
from repro.energy.cacti import SRAMModel
from repro.energy.model import EnergyModel, EnergyReport
from repro.memory.hierarchy import HierarchyConfig, PrivateHierarchy, SharedUncore
from repro.serde import JSONSerializable
from repro.uarch.config import CoreConfig
from repro.uarch.core import OoOCore, run_lockstep
from repro.uarch.probes import Probe, build_probe, default_probes
from repro.uarch.stats import CoreStats
from repro.workloads.simpoint import SimPointSampler
from repro.workloads.source import TraceSource, as_source
from repro.workloads.trace import Trace

#: Accepted workload argument: an eager trace or any streaming source.
TraceLike = Union[Trace, TraceSource]

#: Accepted probe argument: registry names or ready-made instances.
ProbeLike = Union[str, Probe]

#: Default spacing between per-core address spaces: far larger than any
#: workload footprint, so cores never alias the same lines (contention is
#: capacity and bandwidth, not false sharing), yet small enough that XOR-fold
#: bank hashing still spreads each core's pages over all DRAM banks.
DEFAULT_ADDRESS_STRIDE = 1 << 30


@dataclass
class SimulationRequest(JSONSerializable):
    """Everything that defines one simulation run, as one serialisable value.

    This is the request side of :func:`run_simulation`: a single dataclass
    that round-trips through serde, so experiment infrastructure (engine
    jobs, shards, SimPoint windows) can build, hash and ship run parameters
    without keyword-argument drift.  ``probes`` holds registry *names* only —
    fresh instances are built per run, which keeps requests serialisable and
    probe state per-run; ready-made :class:`~repro.uarch.probes.Probe`
    instances go through ``run_simulation``'s ``extra_probes`` argument
    instead.
    """

    variant: str = "pre"
    config: Optional[CoreConfig] = None
    hierarchy_config: Optional[HierarchyConfig] = None
    max_cycles: Optional[int] = None
    #: Probe registry names (instances are deliberately not representable).
    probes: List[str] = field(default_factory=list)
    #: Committed micro-ops excluded from the returned statistics (state kept).
    warmup_uops: int = 0


@dataclass
class CoreResult(JSONSerializable):
    """One core's slice of a multi-core simulation."""

    core_id: int = 0
    variant: str = "ooo"
    trace_name: str = ""
    stats: CoreStats = field(default_factory=CoreStats)

    @property
    def ipc(self) -> float:
        """Committed micro-ops per cycle on this core."""
        return self.stats.ipc


@dataclass
class UncoreReport(JSONSerializable):
    """Shared L3/DRAM/bus usage of a multi-core run, attributed per core.

    Each list has one entry per core (index = ``core_id``); the counters are
    copied off the :class:`~repro.memory.hierarchy.SharedUncore` at the end of
    the run.  Queue-delay and bus-busy cycles attribute *contention*: how long
    each core's DRAM requests waited on busy banks/bus, and how long its
    transfers occupied the shared data bus.
    """

    l3_hits: List[int] = field(default_factory=list)
    l3_misses: List[int] = field(default_factory=list)
    dram_reads: List[int] = field(default_factory=list)
    dram_writes: List[int] = field(default_factory=list)
    dram_queue_delay_cycles: List[int] = field(default_factory=list)
    bus_busy_cycles: List[int] = field(default_factory=list)

    @property
    def num_cores(self) -> int:
        """Number of cores sharing the uncore."""
        return len(self.l3_hits)


@dataclass
class SimulationResult(JSONSerializable):
    """Everything measured from one (trace, variant) simulation."""

    variant: str
    trace_name: str
    stats: CoreStats
    energy: EnergyReport
    config: CoreConfig
    #: Findings of explicitly attached probes, keyed by probe name.
    probe_reports: Dict[str, Any] = field(default_factory=dict)
    #: Per-core results of a multi-core run (empty for single-core runs).
    #: Core 0 is the focus core; its stats also fill the top-level fields.
    cores: List[CoreResult] = field(default_factory=list)
    #: Shared-resource usage attributed per core (multi-core runs only).
    uncore: Optional[UncoreReport] = None

    @property
    def label(self) -> str:
        """The paper's label for this variant (OoO, RA, RA-buffer, PRE, PRE+EMQ)."""
        return VARIANT_LABELS.get(self.variant, self.variant)

    @property
    def cycles(self) -> int:
        """Total simulated cycles."""
        return self.stats.cycles

    @property
    def ipc(self) -> float:
        """Committed micro-ops per cycle."""
        return self.stats.ipc

    @property
    def total_energy_nj(self) -> float:
        """Total core + DRAM energy in nanojoules."""
        return self.energy.total_nj


def _runahead_sram_models(core: OoOCore) -> Dict[str, SRAMModel]:
    """SRAM models for the runahead structures present in ``core``'s controller."""
    models: Dict[str, SRAMModel] = {}
    controller = core.controller
    if isinstance(controller, PreciseRunaheadController):
        if controller.sst is not None:
            models["sst"] = SRAMModel(
                "sst", controller.sst.storage_bytes, read_ports=8, write_ports=2
            )
        if controller.prdq is not None:
            models["prdq"] = SRAMModel(
                "prdq", controller.prdq.storage_bytes, read_ports=4, write_ports=4
            )
        if controller.emq is not None:
            models["emq"] = SRAMModel(
                "emq", controller.emq.storage_bytes, read_ports=4, write_ports=4
            )
    if isinstance(controller, RunaheadBufferController):
        models["runahead_buffer"] = SRAMModel("runahead_buffer", controller.storage_bytes)
    return models


def _simulate(
    pairs: Sequence[Tuple[TraceLike, str]],
    config: Optional[CoreConfig] = None,
    hierarchy_config: Optional[HierarchyConfig] = None,
    energy_model: Optional[EnergyModel] = None,
    max_cycles: Optional[int] = None,
    probes: Sequence[ProbeLike] = (),
    address_stride: int = DEFAULT_ADDRESS_STRIDE,
    warmup_uops: int = 0,
) -> SimulationResult:
    """The one set-up path behind :func:`run_simulation` and ``run_multicore``.

    Core ``i`` runs pair ``i`` on its own private hierarchy, addresses offset
    by ``i * address_stride``, over one shared uncore; ``probes`` attach to
    core 0, whose stats and energy fill the result's top-level fields.
    """
    if not pairs:
        raise ValueError("need at least one (trace, variant) pair")
    # Raises for an unknown variant before anything else is built.
    controllers = [build_controller(variant) for _, variant in pairs]
    if address_stride <= 0:
        raise ValueError(f"address_stride must be positive, got {address_stride}")
    if warmup_uops < 0:
        raise ValueError(f"warmup_uops must be >= 0, got {warmup_uops}")
    sources = [as_source(trace) for trace, _ in pairs]
    for source in sources:
        if source.length is not None and warmup_uops > source.length:
            raise ValueError(
                f"warmup_uops ({warmup_uops}) exceeds the {source.length} "
                f"micro-ops of {source.name!r}"
            )
    config = config or CoreConfig()
    hierarchy_config = hierarchy_config or HierarchyConfig()
    uncore = SharedUncore(config=hierarchy_config, num_cores=len(pairs))
    cores = []
    for core_id, (source, controller) in enumerate(zip(sources, controllers)):
        hierarchy = PrivateHierarchy(
            config=hierarchy_config,
            uncore=uncore,
            core_id=core_id,
            addr_offset=core_id * address_stride,
        )
        # Registry names become fresh instances, attached to core 0 alone.
        attached = [build_probe(probe) for probe in probes] if core_id == 0 else []
        cores.append(
            OoOCore(
                source,
                config=config,
                hierarchy=hierarchy,
                controller=controller,
                probes=default_probes() + attached,
            )
        )
    all_stats = run_lockstep(cores, max_cycles, warmup_uops)

    focus, variant = cores[0], pairs[0][1]
    report = (energy_model or EnergyModel()).evaluate(
        variant=variant,
        stats=all_stats[0],
        hierarchy=focus.hierarchy,
        config=config,
        extra_sram=_runahead_sram_models(focus),
    )
    return SimulationResult(
        variant=variant,
        trace_name=sources[0].name,
        stats=all_stats[0],
        energy=report,
        config=config,
        # Default probes report None, so this is exactly the attached findings.
        probe_reports=focus.probes.reports(),
        cores=[
            CoreResult(core_id, core_variant, source.name, stats)
            for core_id, (source, (_, core_variant), stats) in enumerate(
                zip(sources, pairs, all_stats)
            )
        ],
        uncore=UncoreReport(
            l3_hits=list(uncore.l3_hits),
            l3_misses=list(uncore.l3_misses),
            dram_reads=list(uncore.dram_reads),
            dram_writes=list(uncore.dram_writes),
            dram_queue_delay_cycles=list(uncore.dram_queue_delay_cycles),
            bus_busy_cycles=list(uncore.bus_busy_cycles),
        ),
    )


def run_simulation(
    trace: TraceLike,
    request: Optional[SimulationRequest] = None,
    *,
    energy_model: Optional[EnergyModel] = None,
    extra_probes: Sequence[ProbeLike] = (),
) -> SimulationResult:
    """Simulate a trace or source as described by a :class:`SimulationRequest`.

    ``warmup_uops`` (on the request) excludes the first that-many committed
    micro-ops from the returned statistics (microarchitectural state is kept —
    that is the point): shard runs use it so stats describe only the measured
    window while caches, predictors and queues enter it warm.  ``0`` (the
    default) is the exact, bit-identical whole-run path.  A warmup longer than
    a known-length source is rejected.

    ``energy_model`` and ``extra_probes`` sit outside the request because they
    carry live objects that cannot (and should not) serialise: a custom model
    and ready-made probe instances are an in-process affair.
    """
    request = request or SimulationRequest()
    result = _simulate(
        [(trace, request.variant)],
        config=request.config,
        hierarchy_config=request.hierarchy_config,
        energy_model=energy_model,
        max_cycles=request.max_cycles,
        probes=[*request.probes, *extra_probes],
        warmup_uops=request.warmup_uops,
    )
    # A single-core result carries no per-core sections: its JSON, cache
    # entries and digests are those of a run with no neighbours.
    result.cores = []
    result.uncore = None
    return result


# ---------------------------------------------------------- SimPoint execution


@dataclass
class SimPointIntervalResult(JSONSerializable):
    """One representative interval's window run."""

    start: int
    end: int
    weight: float
    result: SimulationResult

    @property
    def length(self) -> int:
        """Micro-ops in the interval."""
        return self.end - self.start


@dataclass
class SimPointRunResult(JSONSerializable):
    """A SimPoint-sampled simulation: window runs plus weighted whole-trace stats."""

    variant: str
    trace_name: str
    total_uops: int
    simulated_uops: int
    intervals: List[SimPointIntervalResult]
    weighted_stats: CoreStats

    @property
    def weighted_ipc(self) -> float:
        """Whole-trace IPC estimated from the weighted interval runs."""
        return self.weighted_stats.ipc

    @property
    def sampling_fraction(self) -> float:
        """Fraction of the trace actually simulated."""
        return self.simulated_uops / self.total_uops if self.total_uops else 0.0


def _weighted_core_stats(
    weighted: Sequence[Tuple[CoreStats, float]], total_uops: int
) -> CoreStats:
    """Scale per-interval stats to whole-trace estimates (SimPoint weighting).

    Every integer counter is treated as a per-committed-uop rate, combined
    across intervals by weight and scaled to ``total_uops``; the classic
    ``CPI = sum(w_i * CPI_i)`` falls out of the ``cycles`` field.  List-valued
    fields (intervals, snapshots) are per-window artifacts and stay empty.
    Intervals that committed nothing (e.g. a ``max_cycles`` budget expired
    mid-miss) carry no rate information, so the remaining weights are
    renormalised rather than silently shrinking every estimate.
    """
    aggregate = CoreStats()
    usable = [(stats, weight) for stats, weight in weighted if stats.committed_uops]
    total_weight = sum(weight for _, weight in usable)
    if not usable or not total_uops or not total_weight:
        return aggregate
    for stats_field in dataclasses.fields(CoreStats):
        if stats_field.name == "events":
            continue
        if not isinstance(getattr(aggregate, stats_field.name), int):
            continue
        rate = sum(
            weight * getattr(stats, stats_field.name) / stats.committed_uops
            for stats, weight in usable
        )
        setattr(aggregate, stats_field.name, round(rate / total_weight * total_uops))
    for event_field in dataclasses.fields(type(aggregate.events)):
        rate = sum(
            weight * getattr(stats.events, event_field.name) / stats.committed_uops
            for stats, weight in usable
        )
        setattr(aggregate.events, event_field.name, round(rate / total_weight * total_uops))
    aggregate.committed_uops = total_uops
    return aggregate


def run_simpoints(
    trace: TraceLike,
    variant: str = "pre",
    config: Optional[CoreConfig] = None,
    hierarchy_config: Optional[HierarchyConfig] = None,
    max_cycles: Optional[int] = None,
    probes: Optional[Sequence[str]] = None,
    interval_size: int = 2_000,
    max_clusters: int = 4,
    seed: int = 0,
    engine: Optional[Any] = None,
) -> SimPointRunResult:
    """Simulate only a workload's representative SimPoint intervals.

    The sampler clusters fixed-size intervals in one streaming pass (no
    materialisation), each representative interval runs as a windowed
    :class:`~repro.simulation.engine.JobSpec`, and the per-interval
    statistics are combined with the clusters' weights into whole-trace
    estimates — strictly fewer micro-ops simulated than a full run, one
    weighted answer out.

    Interval jobs run through ``engine`` (default: a serial, uncached
    :class:`~repro.simulation.engine.ExperimentEngine`): pass one with
    workers and a cache directory and intervals run on the process pool and
    land in the shared :class:`~repro.simulation.engine.ResultCache` — a
    repeated SimPoint run re-simulates nothing.

    ``probes`` must be registry *names*: each interval gets fresh probe
    instances, so per-interval ``probe_reports`` never accumulate state
    across windows.  (A shared ``Probe`` instance would silently sum all
    intervals into the later reports, so the engine rejects instances.)
    """
    # Local import: engine.py imports this module at load time.
    from repro.simulation.engine import ExperimentEngine, JobSpec

    source = as_source(trace)
    sampler = SimPointSampler(
        interval_size=interval_size, max_clusters=max_clusters, seed=seed
    )
    intervals, total_uops = sampler.select_source(source)
    jobs = [
        JobSpec(
            variant=variant,
            trace=source,
            config=config,
            hierarchy_config=hierarchy_config,
            max_cycles=max_cycles,
            probes=list(probes or ()),
            window=(interval.start, interval.end),
        )
        for interval in intervals
    ]
    results = (engine or ExperimentEngine()).run_jobs(jobs)
    interval_results = [
        SimPointIntervalResult(
            start=interval.start,
            end=interval.end,
            weight=interval.weight,
            result=result,
        )
        for interval, result in zip(intervals, results)
    ]
    weighted_stats = _weighted_core_stats(
        [(entry.result.stats, entry.weight) for entry in interval_results],
        total_uops,
    )
    return SimPointRunResult(
        variant=variant,
        trace_name=source.name,
        total_uops=total_uops,
        simulated_uops=sum(entry.length for entry in interval_results),
        intervals=interval_results,
        weighted_stats=weighted_stats,
    )
