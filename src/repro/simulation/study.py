"""Declarative sensitivity studies: ``python -m repro study``.

The paper's headline comparison (Figure 2) is one point in a much larger
design space; its sensitivity analyses ask how PRE's gains move with ROB
size, EMQ capacity, MSHR count, DRAM latency, and hardware-prefetcher
interaction.  This module turns each such analysis into a *declarative*
:class:`StudySpec`: a base configuration plus named axes of configuration
overrides, expanded into the cartesian product of axis points, where every
point runs the full workloads x variants grid through the cached parallel
:class:`~repro.simulation.engine.ExperimentEngine` — so a study is
reproducible (the spec serialises), incremental (cells hit the result
cache), and CI-checkable (a re-run with a warm cache simulates nothing).

Axes override two configuration layers:

* ``core`` overrides are :class:`~repro.uarch.config.CoreConfig` fields
  (``rob_size``, ``emq_entries``, ...), validated by ``with_overrides``;
* ``hierarchy`` overrides address :class:`~repro.memory.hierarchy.HierarchyConfig`
  fields by dotted path (``mshr_entries``, ``prefetcher``,
  ``dram.controller_latency_cycles``), applied through the serde layer so
  nested dataclasses revalidate.

Studies register by name in :data:`STUDY_REGISTRY` (the same decorator
pattern as workloads/variants/probes) and run from the CLI::

    python -m repro study list
    python -m repro study run rob-scaling --uops 600 --workers 2 \
        --cache-dir .repro-cache
    python -m repro study report rob_scaling_study.json --csv curves.csv
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence

import dataclasses

from repro.memory.hierarchy import HierarchyConfig
from repro.registry import Registry
from repro.serde import JSONSerializable
from repro.simulation.engine import (
    EngineRunStats,
    ExperimentEngine,
    JobSpec,
    assemble_comparison,
    resolve_variants,
    resolve_workloads,
)
from repro.simulation.multicore import CoreAssignment, MultiCoreSpec
from repro.simulation.experiment import ComparisonResult
from repro.simulation.simulator import SimulationResult
from repro.uarch.config import CoreConfig

#: Memory-sensitive trio used by the registered studies: small enough for CI,
#: varied enough (pointer-chasing, streaming, mixed) for the curves to move.
DEFAULT_STUDY_WORKLOADS = ("mcf", "milc", "sphinx3")

#: Default micro-ops per cell for registered studies (CLI ``--uops`` overrides).
DEFAULT_STUDY_UOPS = 2_000


# ----------------------------------------------------------------- spec model


@dataclass
class AxisPoint(JSONSerializable):
    """One value of a study axis: a label plus the overrides it implies."""

    label: str
    #: :class:`~repro.uarch.config.CoreConfig` field overrides.
    core: Dict[str, Any] = field(default_factory=dict)
    #: :class:`~repro.memory.hierarchy.HierarchyConfig` overrides, keyed by
    #: dotted field path (e.g. ``"dram.controller_latency_cycles"``).
    hierarchy: Dict[str, Any] = field(default_factory=dict)
    #: Multi-core co-runner overrides (see :func:`build_multicore_spec`):
    #: ``co_runners``, ``co_workload``, ``co_variant``, ``address_stride``.
    multicore: Dict[str, Any] = field(default_factory=dict)


@dataclass
class StudyAxis(JSONSerializable):
    """A named axis: an ordered list of points the study sweeps through."""

    name: str
    points: List[AxisPoint]

    @staticmethod
    def core_field(name: str, values: Sequence[Any]) -> "StudyAxis":
        """An axis sweeping one ``CoreConfig`` field through ``values``."""
        return StudyAxis(
            name=name,
            points=[AxisPoint(label=str(value), core={name: value}) for value in values],
        )

    @staticmethod
    def hierarchy_field(name: str, values: Sequence[Any]) -> "StudyAxis":
        """An axis sweeping one ``HierarchyConfig`` dotted path through ``values``."""
        return StudyAxis(
            name=name,
            points=[
                AxisPoint(label=str(value), hierarchy={name: value}) for value in values
            ],
        )


@dataclass
class StudyPoint(JSONSerializable):
    """One cell of the expanded cartesian product: coordinates + merged overrides."""

    #: axis name -> point label, in axis order (the report's row key).
    coordinates: Dict[str, str]
    core_overrides: Dict[str, Any] = field(default_factory=dict)
    hierarchy_overrides: Dict[str, Any] = field(default_factory=dict)
    multicore_overrides: Dict[str, Any] = field(default_factory=dict)

    @property
    def label(self) -> str:
        """Human-readable ``axis=value`` coordinate string."""
        return ", ".join(f"{axis}={value}" for axis, value in self.coordinates.items())


@dataclass
class StudySpec(JSONSerializable):
    """A declarative sensitivity study: base config + axes of overrides.

    ``variants`` follows sweep semantics: the ``ooo`` baseline is always
    added (every per-point table normalises against it).  ``base_core`` /
    ``base_hierarchy`` apply to *every* point; axis overrides stack on top.
    """

    name: str
    description: str = ""
    workloads: List[str] = field(default_factory=lambda: list(DEFAULT_STUDY_WORKLOADS))
    variants: List[str] = field(default_factory=lambda: ["pre"])
    axes: List[StudyAxis] = field(default_factory=list)
    num_uops: int = DEFAULT_STUDY_UOPS
    max_cycles: Optional[int] = None
    base_core: Dict[str, Any] = field(default_factory=dict)
    base_hierarchy: Dict[str, Any] = field(default_factory=dict)
    probes: List[str] = field(default_factory=list)

    # ------------------------------------------------------------ validation

    def resolved_workloads(self) -> List[str]:
        """The workload list, validated against the registry."""
        if not self.workloads:
            raise ValueError(f"study {self.name!r} selects no workloads")
        return resolve_workloads(self.workloads)

    def resolved_variants(self) -> List[str]:
        """The variant list with the ``ooo`` baseline prepended, validated."""
        return resolve_variants(self.variants)

    # ------------------------------------------------------------- expansion

    def expand(self) -> List[StudyPoint]:
        """The cartesian product of axis points, in deterministic axis order.

        Axis order is significant (earlier axes vary slowest, matching
        ``itertools.product``), and two axes overriding the same field is a
        spec bug reported here rather than silently last-writer-wins.
        """
        if not self.axes:
            raise ValueError(f"study {self.name!r} declares no axes")
        for axis in self.axes:
            if not axis.points:
                raise ValueError(
                    f"study {self.name!r}: axis {axis.name!r} has no points"
                )
        # Validate core override names here (hierarchy paths are checked by
        # apply_hierarchy_overrides): a typo'd field must be a clean spec
        # error, not a TypeError from dataclasses.replace at run time.
        valid_core = {f.name for f in dataclasses.fields(CoreConfig)}
        for source, overrides in [("base_core", self.base_core)] + [
            (f"axis {axis.name!r}", point.core)
            for axis in self.axes
            for point in axis.points
        ]:
            unknown = sorted(set(overrides) - valid_core)
            if unknown:
                raise KeyError(
                    f"study {self.name!r}: unknown CoreConfig field(s) "
                    f"{', '.join(map(repr, unknown))} in {source}; valid fields: "
                    f"{', '.join(sorted(valid_core))}"
                )
        points: List[StudyPoint] = []
        for combo in itertools.product(*(axis.points for axis in self.axes)):
            core: Dict[str, Any] = dict(self.base_core)
            hierarchy: Dict[str, Any] = dict(self.base_hierarchy)
            multicore: Dict[str, Any] = {}
            seen_core: Dict[str, str] = {}
            seen_hier: Dict[str, str] = {}
            seen_multicore: Dict[str, str] = {}
            for axis, point in zip(self.axes, combo):
                for key, value in point.core.items():
                    if key in seen_core:
                        raise ValueError(
                            f"study {self.name!r}: axes {seen_core[key]!r} and "
                            f"{axis.name!r} both override core field {key!r}"
                        )
                    seen_core[key] = axis.name
                    core[key] = value
                for key, value in point.hierarchy.items():
                    if key in seen_hier:
                        raise ValueError(
                            f"study {self.name!r}: axes {seen_hier[key]!r} and "
                            f"{axis.name!r} both override hierarchy field {key!r}"
                        )
                    seen_hier[key] = axis.name
                    hierarchy[key] = value
                for key, value in point.multicore.items():
                    if key in seen_multicore:
                        raise ValueError(
                            f"study {self.name!r}: axes {seen_multicore[key]!r} and "
                            f"{axis.name!r} both override multicore key {key!r}"
                        )
                    seen_multicore[key] = axis.name
                    multicore[key] = value
            # Validate merged co-runner keys eagerly: a typo must be a clean
            # spec error at expansion, not a worker-side failure.
            build_multicore_spec(multicore)
            points.append(
                StudyPoint(
                    coordinates={
                        axis.name: point.label for axis, point in zip(self.axes, combo)
                    },
                    core_overrides=core,
                    hierarchy_overrides=hierarchy,
                    multicore_overrides=multicore,
                )
            )
        return points


# -------------------------------------------------------- config construction


def apply_hierarchy_overrides(
    base: Optional[HierarchyConfig], overrides: Dict[str, Any]
) -> Optional[HierarchyConfig]:
    """A new :class:`HierarchyConfig` with dotted-path ``overrides`` applied.

    Goes through the serde dict representation so nested dataclasses
    (``dram.controller_latency_cycles``, ``l1d.latency``) rebuild and
    revalidate; ``base`` is never mutated.  Returns ``base`` unchanged (which
    may be ``None``, meaning "simulator default") when there is nothing to
    apply.
    """
    if not overrides:
        return base
    data = (base or HierarchyConfig()).to_dict()
    for path, value in overrides.items():
        cursor = data
        *parents, leaf = path.split(".")
        walked: List[str] = []
        for part in parents:
            if not isinstance(cursor, dict) or part not in cursor:
                raise KeyError(
                    f"unknown hierarchy override path {path!r} "
                    f"(no field {part!r} under {'.'.join(walked) or 'HierarchyConfig'})"
                )
            walked.append(part)
            cursor = cursor[part]
        if not isinstance(cursor, dict) or leaf not in cursor:
            raise KeyError(
                f"unknown hierarchy override path {path!r} "
                f"(no field {leaf!r} under {'.'.join(walked) or 'HierarchyConfig'})"
            )
        cursor[leaf] = value
    return HierarchyConfig.from_dict(data)


#: Recognised keys of an :class:`AxisPoint`'s ``multicore`` override dict.
_MULTICORE_KEYS = ("co_runners", "co_workload", "co_variant", "address_stride")


def build_multicore_spec(overrides: Dict[str, Any]) -> Optional[MultiCoreSpec]:
    """Turn a study point's multicore override dict into a co-runner spec.

    Recognised keys:

    * ``co_workload`` — registry name of the neighbour workload;
    * ``co_variant`` — the neighbours' core variant (default ``"ooo"``);
    * ``co_runners`` — how many identical neighbours (default ``1`` when a
      ``co_workload`` is given; ``0`` means *no* neighbours but still runs
      through the multi-core path, the natural no-contention baseline inside
      a contention study);
    * ``address_stride`` — per-core address-space spacing.

    An empty dict returns ``None``: the classic single-core path.
    """
    if not overrides:
        return None
    unknown = sorted(set(overrides) - set(_MULTICORE_KEYS))
    if unknown:
        raise KeyError(
            f"unknown multicore override key(s) {', '.join(map(repr, unknown))}; "
            f"valid keys: {', '.join(_MULTICORE_KEYS)}"
        )
    co_workload = overrides.get("co_workload", "")
    co_runners = overrides.get(
        "co_runners", 1 if co_workload else 0
    )
    if co_runners < 0:
        raise ValueError(f"co_runners must be >= 0, got {co_runners}")
    if co_runners and not co_workload:
        raise ValueError("co_runners > 0 needs a co_workload")
    if not co_runners and "co_variant" in overrides:
        raise ValueError("co_variant without any co-runner core")
    cores = [
        CoreAssignment(
            workload=co_workload, variant=overrides.get("co_variant", "ooo")
        )
        for _ in range(co_runners)
    ]
    if "address_stride" in overrides:
        return MultiCoreSpec(cores=cores, address_stride=overrides["address_stride"])
    return MultiCoreSpec(cores=cores)


# --------------------------------------------------------------- result model


@dataclass
class StudyPointResult(JSONSerializable):
    """One study point's full workloads x variants comparison grid."""

    point: StudyPoint
    comparison: ComparisonResult


@dataclass
class StudyResult(JSONSerializable):
    """Everything a study run produced, serialisable for ``study report``."""

    spec: StudySpec
    points: List[StudyPointResult]
    total_jobs: int = 0
    simulated: int = 0
    cache_hits: int = 0

    def variants(self) -> List[str]:
        """Variant columns, baseline first."""
        return self.spec.resolved_variants()

    def geomean_ipc(self, point: StudyPointResult, variant: str) -> float:
        """Geometric-mean IPC of ``variant`` across the study's workloads."""
        from repro.simulation.metrics import geometric_mean

        return geometric_mean(
            [bench.results[variant].ipc for bench in point.comparison.benchmarks]
        )

    def mean_speedup_percent(self, point: StudyPointResult, variant: str) -> float:
        """Suite-geomean speedup of ``variant`` over the baseline at ``point``."""
        return point.comparison.mean_speedup_percent(variant, geometric=True)

    def mean_energy_savings_percent(
        self, point: StudyPointResult, variant: str
    ) -> float:
        """Suite-average energy saving of ``variant`` at ``point``."""
        return point.comparison.mean_energy_savings_percent(variant)


# ----------------------------------------------------------------- execution


def study_jobs(spec: StudySpec, engine: ExperimentEngine) -> List[JobSpec]:
    """Expand ``spec``'s cartesian product into fully-configured engine jobs.

    The spec-to-job adapter shared by :func:`run_study` and the experiment
    service: the service expands a submitted study document through this,
    turns the jobs into payloads (``engine.expand_job_payloads``) and probes
    the result cache to report dedupe accounting *at admission time*, before
    anything is scheduled.  Base configs come from ``engine`` so both callers
    resolve overrides identically.
    """
    points = spec.expand()
    workloads = spec.resolved_workloads()
    variants = spec.resolved_variants()
    jobs: List[JobSpec] = []
    for point in points:
        config = engine.config.with_overrides(**point.core_overrides)
        hierarchy = apply_hierarchy_overrides(
            engine.hierarchy_config, point.hierarchy_overrides
        )
        multicore = build_multicore_spec(point.multicore_overrides)
        for workload in workloads:
            for variant in variants:
                jobs.append(
                    JobSpec(
                        workload=workload,
                        variant=variant,
                        num_uops=spec.num_uops,
                        config=config,
                        hierarchy_config=hierarchy,
                        max_cycles=spec.max_cycles,
                        probes=list(spec.probes),
                        multicore=multicore,
                    )
                )
    return jobs


def study_result(
    spec: StudySpec, results: Sequence[SimulationResult], stats: EngineRunStats
) -> StudyResult:
    """Fold the results of :func:`study_jobs`, in job order, into a study result.

    ``stats`` is the engine run's accounting (``engine.last_run_stats``).
    """
    workloads = spec.resolved_workloads()
    variants = spec.resolved_variants()
    per_point = len(workloads) * len(variants)
    point_results = [
        StudyPointResult(
            point=point,
            comparison=assemble_comparison(
                workloads,
                variants,
                results[index * per_point : (index + 1) * per_point],
            ),
        )
        for index, point in enumerate(spec.expand())
    ]
    return StudyResult(
        spec=spec,
        points=point_results,
        total_jobs=stats.total_jobs,
        simulated=stats.simulated,
        cache_hits=stats.cache_hits,
    )


def run_study(
    spec: StudySpec,
    engine: Optional[ExperimentEngine] = None,
    progress=None,
) -> StudyResult:
    """Expand ``spec`` and run every cell through ``engine`` in one pass.

    All points' cells go to the engine as a single job batch, so parallelism
    spans the whole cartesian product (not one pool per point) and
    ``engine.last_run_stats`` accounts for the entire study — which is how
    the CLI (and CI) asserts that a warm-cache re-run simulates nothing.
    ``progress`` (optional) is called with one descriptive line per phase.
    """
    engine = engine or ExperimentEngine()
    jobs = study_jobs(spec, engine)
    if progress is not None:
        progress(
            f"study {spec.name!r}: {len(spec.expand())} points x "
            f"{len(spec.resolved_workloads())} workloads x "
            f"{len(spec.resolved_variants())} variants = {len(jobs)} cells "
            f"({spec.num_uops} micro-ops each)"
        )
    results = engine.run_jobs(jobs)
    return study_result(spec, results, engine.last_run_stats)


# ------------------------------------------------------------------- registry

#: Named sensitivity studies: factories return a fresh :class:`StudySpec`.
STUDY_REGISTRY = Registry("study", plural="studies")


def register_study(
    name: str,
    *,
    label: Optional[str] = None,
    description: str = "",
    replace: bool = False,
    **metadata: Any,
):
    """Decorator registering a :class:`StudySpec` factory as a named study."""
    return STUDY_REGISTRY.register(
        name, label=label, description=description, replace=replace, **metadata
    )


def build_study(
    name: str,
    num_uops: Optional[int] = None,
    workloads: Optional[Sequence[str]] = None,
    variants: Optional[Sequence[str]] = None,
) -> StudySpec:
    """Build a registered study's spec, optionally narrowing it for smoke runs."""
    spec: StudySpec = STUDY_REGISTRY.get(name).create()
    overrides: Dict[str, Any] = {}
    if num_uops is not None:
        overrides["num_uops"] = num_uops
    if workloads is not None:
        overrides["workloads"] = list(workloads)
    if variants is not None:
        overrides["variants"] = list(variants)
    return replace(spec, **overrides) if overrides else spec


# ----------------------------------------------------- paper-grounded studies


@register_study(
    "rob-scaling",
    description="PRE speedup vs reorder-buffer depth (128..384 entries)",
)
def _rob_scaling_study() -> StudySpec:
    # Section 5's premise is that full-window stalls dominate as the window
    # grows; the PRDQ mirrors the ROB (one recycled-register slot per ROB
    # entry), so both scale together on this axis.
    return StudySpec(
        name="rob-scaling",
        description=(
            "How runahead's benefit moves with out-of-order window depth: "
            "each point scales the ROB (and the PRDQ that shadows it)."
        ),
        variants=["runahead", "pre"],
        axes=[
            StudyAxis(
                name="rob_size",
                points=[
                    AxisPoint(
                        label=str(size),
                        core={"rob_size": size, "prdq_entries": size},
                    )
                    for size in (128, 192, 256, 384)
                ],
            )
        ],
    )


@register_study(
    "emq-sensitivity",
    description="PRE vs PRE+EMQ across EMQ capacities (96..768 entries)",
)
def _emq_sensitivity_study() -> StudySpec:
    # Section 3.6/4: the EMQ decouples runahead issue from the issue queue;
    # the paper sizes it at 768 entries and reports diminishing returns.
    return StudySpec(
        name="emq-sensitivity",
        description=(
            "Whether the enhanced memorisation queue pays for its SRAM: "
            "sweeps EMQ capacity under both PRE variants."
        ),
        variants=["pre", "pre_emq"],
        axes=[StudyAxis.core_field("emq_entries", [96, 192, 384, 768])],
    )


@register_study(
    "mshr-prefetch-interaction",
    description="MSHR capacity x hardware prefetcher (2-axis cartesian grid)",
)
def _mshr_prefetch_study() -> StudySpec:
    # Section 5.3 discusses runahead alongside conventional prefetching; the
    # MSHR file bounds the memory-level parallelism either mechanism can
    # expose, so the two knobs interact and get a full cartesian grid.
    return StudySpec(
        name="mshr-prefetch-interaction",
        description=(
            "Does PRE still win when a hardware prefetcher competes for "
            "MSHRs?  8/16/32 entries x none/nextline/stride."
        ),
        variants=["pre"],
        axes=[
            StudyAxis.hierarchy_field("mshr_entries", [8, 16, 32]),
            StudyAxis.hierarchy_field("prefetcher", ["none", "nextline", "stride"]),
        ],
    )


@register_study(
    "multicore-contention",
    description="PRE vs shared-L3/DRAM contention from an mcf neighbour core",
)
def _multicore_contention_study() -> StudySpec:
    # The paper evaluates single-core PRE; the natural multi-core question is
    # whether its prefetch-like runahead traffic hurts a neighbour (and how
    # much a neighbour's traffic hurts it).  bwaves is the streaming,
    # bandwidth-hungry victim; mcf the pointer-chasing, DRAM-bound neighbour.
    # The "none" point runs the degenerate one-core multi-core path, so all
    # three points are directly comparable by construction.
    return StudySpec(
        name="multicore-contention",
        description=(
            "Per-core IPC and shared-bus/DRAM-queue attribution for a bwaves "
            "focus core running alone, next to an OoO neighbour, and next to "
            "a PRE neighbour (both running mcf)."
        ),
        workloads=["bwaves"],
        variants=["pre"],
        axes=[
            StudyAxis(
                name="neighbor",
                points=[
                    AxisPoint(label="none", multicore={"co_runners": 0}),
                    AxisPoint(
                        label="ooo",
                        multicore={"co_workload": "mcf", "co_variant": "ooo"},
                    ),
                    AxisPoint(
                        label="pre",
                        multicore={"co_workload": "mcf", "co_variant": "pre"},
                    ),
                ],
            )
        ],
    )


@register_study(
    "dram-latency",
    description="Runahead benefit vs DRAM controller latency (20..160 cycles)",
)
def _dram_latency_study() -> StudySpec:
    # Runahead exists to hide off-chip latency: the longer the miss, the more
    # cycles there are to prefetch under.  Sweeps the fixed controller +
    # interconnect overhead on top of the banked timing model.
    return StudySpec(
        name="dram-latency",
        description=(
            "Scaling the off-chip round trip: runahead's gain should grow "
            "with memory latency while the baseline IPC collapses."
        ),
        variants=["runahead", "pre"],
        axes=[
            StudyAxis.hierarchy_field(
                "dram.controller_latency_cycles", [20, 40, 80, 160]
            )
        ],
    )


__all__ = [
    "AxisPoint",
    "DEFAULT_STUDY_UOPS",
    "DEFAULT_STUDY_WORKLOADS",
    "STUDY_REGISTRY",
    "StudyAxis",
    "StudyPoint",
    "StudyPointResult",
    "StudyResult",
    "StudySpec",
    "apply_hierarchy_overrides",
    "build_multicore_spec",
    "build_study",
    "register_study",
    "run_study",
    "study_jobs",
    "study_result",
]
