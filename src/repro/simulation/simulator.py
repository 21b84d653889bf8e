"""Simulation entry points: one core, or N cores sharing an uncore.

:func:`run_simulation` runs one (trace, variant) pair as a
:class:`SimulationRequest` describes; ``run_multicore`` runs several side by
side.  Both share one set-up path: fresh hierarchies and cores, the
lockstep loop, energy, and a :class:`SimulationResult`.

A workload is any :class:`~repro.workloads.trace.TraceSource`: an in-memory
:class:`~repro.workloads.trace.Trace`, or a streaming generator, recorded
trace file or SimPoint window, which the core consumes lazily.
Instrumentation probes (registry names or
:class:`~repro.uarch.probes.Probe` instances) can be attached per run; their
findings land in :attr:`SimulationResult.probe_reports`.  Windowed runs
(contiguous shards or SimPoint intervals) live in
:mod:`repro.simulation.shard`.
"""

from __future__ import annotations

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
from repro.uarch.probes import Probe, build_probe
from repro.uarch.stats import CoreStats
from repro.workloads.trace import TraceSource

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
    pairs: Sequence[Tuple[TraceSource, str]],
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
    for trace, _ in pairs:
        if trace.length is not None and warmup_uops > trace.length:
            raise ValueError(
                f"warmup_uops ({warmup_uops}) exceeds the {trace.length} "
                f"micro-ops of {trace.name!r}"
            )
    config = config or CoreConfig()
    hierarchy_config = hierarchy_config or HierarchyConfig()
    uncore = SharedUncore(config=hierarchy_config, num_cores=len(pairs))
    cores = []
    for core_id, ((trace, _), controller) in enumerate(zip(pairs, controllers)):
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
                trace,
                config=config,
                hierarchy=hierarchy,
                controller=controller,
                probes=attached,
            )
        )
    all_stats = run_lockstep(cores, max_cycles, warmup_uops)

    focus, (trace, variant) = cores[0], pairs[0]
    report = (energy_model or EnergyModel()).evaluate(
        variant=variant,
        stats=all_stats[0],
        hierarchy=focus.hierarchy,
        config=config,
        extra_sram=_runahead_sram_models(focus),
    )
    return SimulationResult(
        variant=variant,
        trace_name=trace.name,
        stats=all_stats[0],
        energy=report,
        config=config,
        probe_reports=focus.probes.reports(),
        cores=[
            CoreResult(core_id, core_variant, core_trace.name, stats)
            for core_id, ((core_trace, core_variant), stats) in enumerate(
                zip(pairs, all_stats)
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
    trace: TraceSource,
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
