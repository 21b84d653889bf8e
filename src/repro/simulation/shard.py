"""Windowed single-trace replay: run windows of one trace, stitch the stats.

A full-detail replay of a long trace is embarrassingly serial — one core
model, one commit stream.  This module trades a little accuracy for
wall-clock: a :class:`ShardPlan` names measured windows of the trace, each
with a warmup prefix and a weight; :func:`shard_jobs` expands them into
windowed engine jobs, which run through
:meth:`~repro.simulation.engine.ExperimentEngine.run_jobs` (process pool +
result cache), and :func:`stitch` folds the per-window statistics by weight
into whole-trace estimates (:func:`_weighted_core_stats`).

Two planners build a plan:

* :func:`plan_shards` splits the trace into ``N`` contiguous windows, each
  weighted by its length;
* :func:`plan_simpoints` clusters the trace's intervals (the paper's
  SimPoint methodology, :class:`~repro.workloads.simpoint.SimPointSampler`)
  and keeps one representative window per cluster, weighted by its
  cluster's share of the trace.

Each window starts from a cold core, which is not how those micro-ops
execute in a whole run.  Two mitigations keep the estimate honest:

* a **warmup prefix**: each window first simulates up to ``warmup_uops``
  micro-ops *preceding* it — warming caches, branch predictors and queues —
  and the stats-reset seam in the core excludes those commits from the
  window's statistics;
* **exactness by construction** for the degenerate plan: one window with
  zero warmup covers the whole trace, bypasses stitching entirely, and is
  bit-identical to an ordinary
  :func:`~repro.simulation.simulator.run_simulation` call (it even shares
  the same result-cache key).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.memory.hierarchy import HierarchyConfig
from repro.serde import JSONSerializable
from repro.simulation.engine import ExperimentEngine, JobSpec
from repro.simulation.simulator import SimulationResult
from repro.uarch.config import CoreConfig
from repro.uarch.stats import CoreStats
from repro.workloads.simpoint import SimPointSampler
from repro.workloads.trace import TraceSource


@dataclass(frozen=True)
class Shard(JSONSerializable):
    """One contiguous slice of a trace: warmup prefix plus measured window.

    The measured micro-ops are ``[start, end)``; the shard's simulation
    actually begins at ``warmup_start`` (``<= start``), and the commits in
    ``[warmup_start, start)`` warm the core without being counted.
    """

    index: int
    start: int
    end: int
    warmup_start: int

    def __post_init__(self) -> None:
        if not 0 <= self.warmup_start <= self.start < self.end:
            raise ValueError(
                f"invalid shard bounds: warmup_start={self.warmup_start}, "
                f"start={self.start}, end={self.end}"
            )

    @property
    def measured_uops(self) -> int:
        """Micro-ops whose execution counts in this shard's statistics."""
        return self.end - self.start

    @property
    def warmup_uops(self) -> int:
        """Micro-ops simulated before the window purely to warm the core."""
        return self.start - self.warmup_start


@dataclass(frozen=True)
class ShardPlan(JSONSerializable):
    """Measured windows of one trace, each with a warmup prefix and a weight.

    The windows are sorted, disjoint and inside ``[0, total_uops)``, and the
    weights (one per shard, in shard order) sum to 1.0.  ``warmup_uops`` is
    the *requested* warmup; each shard's actual prefix is clamped so it never
    reaches before the trace's beginning.
    """

    total_uops: int
    warmup_uops: int
    shards: Tuple[Shard, ...]
    weights: Tuple[float, ...]

    @property
    def exact(self) -> bool:
        """Whether this plan reproduces an unsharded run bit-for-bit.

        True only for the single-shard, zero-warmup plan: the one window
        covers the whole trace and the stitching step is skipped entirely.
        """
        return (
            len(self.shards) == 1
            and self.shards[0].warmup_uops == 0
            and self.shards[0].start == 0
            and self.shards[0].end == self.total_uops
        )


def _plan(
    total_uops: int,
    warmup_uops: int,
    windows: Sequence[Tuple[int, int]],
    weights: Sequence[float],
) -> ShardPlan:
    """A plan of ``windows``, each warmup prefix clamped at the trace's start."""
    shards = tuple(
        Shard(index, start, end, warmup_start=max(0, start - warmup_uops))
        for index, (start, end) in enumerate(windows)
    )
    return ShardPlan(
        total_uops=total_uops,
        warmup_uops=warmup_uops,
        shards=shards,
        weights=tuple(weights),
    )


def plan_shards(total_uops: int, num_shards: int, warmup_uops: int = 0) -> ShardPlan:
    """Split ``total_uops`` micro-ops into ``num_shards`` contiguous windows.

    The windows partition ``[0, total_uops)`` in order and are as equal as
    possible (the remainder goes to the earliest shards, so sizes differ by
    at most one micro-op); each weighs its share of the trace, and shard 0
    always has zero warmup.  More shards than micro-ops is quietly clamped
    rather than an error — tiny traces still shard.
    """
    if total_uops <= 0:
        raise ValueError(f"cannot shard an empty trace (total_uops={total_uops})")
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    if warmup_uops < 0:
        raise ValueError(f"warmup_uops must be >= 0, got {warmup_uops}")
    num_shards = min(num_shards, total_uops)
    base, remainder = divmod(total_uops, num_shards)
    windows: List[Tuple[int, int]] = []
    start = 0
    for index in range(num_shards):
        end = start + base + (1 if index < remainder else 0)
        windows.append((start, end))
        start = end
    return _plan(
        total_uops,
        warmup_uops,
        windows,
        [(end - start) / total_uops for start, end in windows],
    )


def plan_simpoints(
    source: TraceSource,
    interval_size: int = 2_000,
    max_clusters: int = 4,
    seed: int = 0,
    warmup_uops: int = 0,
) -> ShardPlan:
    """One window per SimPoint cluster of ``source``, weighted by cluster size.

    One streaming :meth:`~repro.workloads.simpoint.SimPointSampler.select_source`
    pass picks the representative intervals and counts the stream's length,
    so a length-less source is never materialised.  Each interval becomes a
    shard whose warmup prefix is ``warmup_uops`` clamped at the trace's
    beginning.
    """
    if warmup_uops < 0:
        raise ValueError(f"warmup_uops must be >= 0, got {warmup_uops}")
    sampler = SimPointSampler(
        interval_size=interval_size, max_clusters=max_clusters, seed=seed
    )
    intervals, total_uops = sampler.select_source(source)
    if total_uops <= 0:
        raise ValueError(f"cannot shard an empty trace (total_uops={total_uops})")
    return _plan(
        total_uops,
        warmup_uops,
        [(interval.start, interval.end) for interval in intervals],
        [interval.weight for interval in intervals],
    )


@dataclass
class ShardResult(JSONSerializable):
    """One shard's window run and its stitching weight."""

    shard: Shard
    weight: float
    result: SimulationResult


@dataclass
class ShardedRunResult(JSONSerializable):
    """A windowed run: per-shard runs plus stitched whole-trace estimates."""

    variant: str
    trace_name: str
    total_uops: int
    warmup_uops: int
    shards: List[ShardResult]
    stitched_stats: CoreStats
    #: True when the plan was the degenerate exact one (single shard, no
    #: warmup): ``stitched_stats`` is then *the* whole-run statistics, not an
    #: estimate.
    exact: bool = False

    @property
    def stitched_ipc(self) -> float:
        """Whole-trace IPC estimated from the stitched statistics."""
        return self.stitched_stats.ipc

    @property
    def simulated_uops(self) -> int:
        """Total micro-ops simulated, warmup prefixes included."""
        return sum(
            entry.shard.measured_uops + entry.shard.warmup_uops
            for entry in self.shards
        )


def shard_jobs(
    source: TraceSource,
    plan: ShardPlan,
    variant: str,
    *,
    config: Optional[CoreConfig] = None,
    hierarchy_config: Optional[HierarchyConfig] = None,
    max_cycles: Optional[int] = None,
    probes: Sequence[str] = (),
) -> List[JobSpec]:
    """One windowed engine job per shard of ``plan``, in shard order.

    The spec-to-job adapter shared by :func:`run_sharded` and the experiment
    service's replay documents.  The engine's expander drops the window of
    the exact plan's single whole-trace shard, so that job shares its cache
    entry with a plain replay of ``source``.
    """
    return [
        JobSpec(
            variant=variant,
            trace=source,
            config=config,
            hierarchy_config=hierarchy_config,
            max_cycles=max_cycles,
            probes=list(probes),
            window=(shard.start, shard.end),
            warmup_uops=shard.warmup_uops,
        )
        for shard in plan.shards
    ]


def run_sharded(
    trace: TraceSource,
    plan: ShardPlan,
    variant: str = "pre",
    *,
    engine: Optional[ExperimentEngine] = None,
    config: Optional[CoreConfig] = None,
    hierarchy_config: Optional[HierarchyConfig] = None,
    max_cycles: Optional[int] = None,
    probes: Sequence[str] = (),
) -> ShardedRunResult:
    """Run ``plan``'s windows of ``trace`` as engine jobs and stitch the stats.

    ``plan`` comes from :func:`plan_shards` (given the trace's length) or
    :func:`plan_simpoints` (which counts a length-less stream itself).
    ``probes`` must be registry names — every shard gets fresh instances, and
    windowed jobs cross the engine's process/serde boundary.  ``engine``
    (default: a serial, uncached one) supplies workers and the result cache.

    The exact plan (one whole-trace window, zero warmup) is normalised to an
    un-windowed job (same cache key as a plain replay) and its statistics are
    returned as-is, skipping the weighted stitch and its float round-off
    entirely.
    """
    jobs = shard_jobs(
        trace,
        plan,
        variant,
        config=config,
        hierarchy_config=hierarchy_config,
        max_cycles=max_cycles,
        probes=probes,
    )
    results = (engine or ExperimentEngine()).run_jobs(jobs)
    return stitch(plan, trace.name, variant, results)


def stitch(
    plan: ShardPlan,
    trace_name: str,
    variant: str,
    results: Sequence[SimulationResult],
) -> ShardedRunResult:
    """Fold the results of :func:`shard_jobs`, in shard order, into one replay."""
    shard_results = [
        ShardResult(shard=shard, weight=weight, result=result)
        for shard, weight, result in zip(plan.shards, plan.weights, results)
    ]
    if plan.exact:
        # The single whole-trace window *is* the run; no weighting, no
        # rounding — bit-identical to run_simulation on the same source.
        stitched = shard_results[0].result.stats
    else:
        stitched = _weighted_core_stats(
            [(entry.result.stats, entry.weight) for entry in shard_results],
            plan.total_uops,
        )
    return ShardedRunResult(
        variant=variant,
        trace_name=trace_name,
        total_uops=plan.total_uops,
        warmup_uops=plan.warmup_uops,
        shards=shard_results,
        stitched_stats=stitched,
        exact=plan.exact,
    )


def _weighted_core_stats(
    weighted: Sequence[Tuple[CoreStats, float]], total_uops: int
) -> CoreStats:
    """Scale per-interval stats to whole-trace estimates (SimPoint weighting).

    Every counter — the integer fields, each interval-length bin, each
    free-resource sum and each event count — is treated as a per-committed-uop
    rate, combined across intervals by weight and scaled to ``total_uops``;
    the classic ``CPI = sum(w_i * CPI_i)`` falls out of the ``cycles`` field.
    Integer counters round to the nearest count, the float sums do not.
    Intervals that committed nothing (e.g. a ``max_cycles`` budget expired
    mid-miss) carry no rate information, so the remaining weights are
    renormalised rather than silently shrinking every estimate.
    """
    aggregate = CoreStats()
    usable = [(stats, weight) for stats, weight in weighted if stats.committed_uops]
    total_weight = sum(weight for _, weight in usable)
    if not usable or not total_uops or not total_weight:
        return aggregate

    def estimate(count: Callable[[CoreStats], float]) -> float:
        rate = sum(weight * count(stats) / stats.committed_uops for stats, weight in usable)
        return rate / total_weight * total_uops

    for stats_field in dataclasses.fields(CoreStats):
        name = stats_field.name
        value = getattr(aggregate, name)
        if isinstance(value, int):
            setattr(aggregate, name, round(estimate(lambda stats: getattr(stats, name))))
        elif isinstance(value, float):
            setattr(aggregate, name, estimate(lambda stats: getattr(stats, name)))
        elif isinstance(value, list):
            value[:] = [
                round(estimate(lambda stats: getattr(stats, name)[index]))
                for index in range(len(value))
            ]
    for event_field in dataclasses.fields(type(aggregate.events)):
        name = event_field.name
        setattr(aggregate.events, name, round(estimate(lambda stats: getattr(stats.events, name))))
    aggregate.committed_uops = total_uops
    return aggregate


# ------------------------------------------------------- declarative replays


@dataclass
class ReplaySpec(JSONSerializable):
    """A serde-round-trippable description of one sharded trace replay.

    The spec-to-job adapter for the experiment service: a submitted
    ``{"kind": "replay"}`` document parses into this, expands into
    :func:`shard_jobs` and folds its results with :func:`stitch` — the same
    path ``trace replay --shards`` takes, minus the CLI.  ``trace_file`` must
    be a recorded trace path readable by the server; its *content digest*
    (not the path) keys the cache.
    """

    trace_file: str
    variant: str = "pre"
    shards: int = 1
    warmup_uops: int = 0
    max_cycles: Optional[int] = None
    probes: List[str] = field(default_factory=list)

    def validate(self) -> None:
        """Raise ``ValueError`` on bounds the planner would reject anyway."""
        if not self.trace_file:
            raise ValueError("replay spec needs a trace_file path")
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.warmup_uops < 0:
            raise ValueError(f"warmup_uops must be >= 0, got {self.warmup_uops}")

    def plan(self, total_uops: int) -> ShardPlan:
        """The shard plan this spec implies for a trace of ``total_uops``."""
        self.validate()
        return plan_shards(total_uops, self.shards, self.warmup_uops)


__all__ = [
    "ReplaySpec",
    "Shard",
    "ShardPlan",
    "ShardResult",
    "ShardedRunResult",
    "plan_shards",
    "plan_simpoints",
    "run_sharded",
    "shard_jobs",
    "stitch",
]
