"""Sharded single-trace replay: split one trace into windows, stitch the stats.

A full-detail replay of a long recorded trace is embarrassingly serial — one
core model, one commit stream.  This module trades a little accuracy for
wall-clock: it splits the trace into ``N`` contiguous shards, expands them
into windowed engine jobs (:func:`shard_jobs`), runs those through
:meth:`~repro.simulation.engine.ExperimentEngine.run_jobs` (process pool +
result cache), and combines the per-shard statistics into whole-trace
estimates with the same weighting rule the SimPoint path uses
(:func:`~repro.simulation.simulator._weighted_core_stats`).

Each shard after the first starts from a cold core, which is not how those
micro-ops execute in an unsharded run.  Two mitigations keep the estimate
honest:

* a **warmup prefix**: each shard first simulates up to ``warmup_uops``
  micro-ops *preceding* its window — warming caches, branch predictors and
  queues — and the stats-reset seam in the core excludes those commits from
  the shard's statistics;
* **exactness by construction** for the degenerate plan: one shard with zero
  warmup covers the whole trace, bypasses stitching entirely, and is
  bit-identical to an ordinary
  :func:`~repro.simulation.simulator.run_simulation` call (it even shares
  the same result-cache key).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from repro.memory.hierarchy import HierarchyConfig
from repro.serde import JSONSerializable
from repro.simulation.engine import ExperimentEngine, JobSpec
from repro.simulation.simulator import (
    SimulationResult,
    _weighted_core_stats,
)
from repro.uarch.config import CoreConfig
from repro.uarch.stats import CoreStats
from repro.workloads.source import TraceSource, as_source
from repro.workloads.trace import Trace


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
    """A deterministic split of a known-length trace into measured windows.

    The shards partition ``[0, total_uops)`` exactly: contiguous,
    non-overlapping, in order.  ``warmup_uops`` is the *requested* warmup;
    each shard's actual prefix is clamped so it never reaches before the
    trace's beginning (shard 0 always has zero warmup).
    """

    total_uops: int
    warmup_uops: int
    shards: Tuple[Shard, ...]

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

    def weights(self) -> List[float]:
        """Each shard's share of the trace (sums to 1.0)."""
        return [shard.measured_uops / self.total_uops for shard in self.shards]


def plan_shards(total_uops: int, num_shards: int, warmup_uops: int = 0) -> ShardPlan:
    """Split ``total_uops`` micro-ops into ``num_shards`` contiguous windows.

    Windows are as equal as possible (the remainder goes to the earliest
    shards, so sizes differ by at most one micro-op) and each shard's warmup
    prefix is ``warmup_uops`` clamped at the trace's beginning.  More shards
    than micro-ops is quietly clamped rather than an error — tiny traces
    still shard.
    """
    if total_uops <= 0:
        raise ValueError(f"cannot shard an empty trace (total_uops={total_uops})")
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    if warmup_uops < 0:
        raise ValueError(f"warmup_uops must be >= 0, got {warmup_uops}")
    num_shards = min(num_shards, total_uops)
    base, remainder = divmod(total_uops, num_shards)
    shards: List[Shard] = []
    start = 0
    for index in range(num_shards):
        size = base + (1 if index < remainder else 0)
        end = start + size
        shards.append(
            Shard(
                index=index,
                start=start,
                end=end,
                warmup_start=max(0, start - warmup_uops),
            )
        )
        start = end
    return ShardPlan(
        total_uops=total_uops, warmup_uops=warmup_uops, shards=tuple(shards)
    )


@dataclass
class ShardResult(JSONSerializable):
    """One shard's window run and its stitching weight."""

    shard: Shard
    weight: float
    result: SimulationResult


@dataclass
class ShardedRunResult(JSONSerializable):
    """A sharded replay: per-shard runs plus stitched whole-trace estimates."""

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
    source: Union[Trace, TraceSource],
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
    trace: Union[Trace, TraceSource],
    variant: str = "pre",
    shards: int = 1,
    warmup_uops: int = 0,
    *,
    engine: Optional[ExperimentEngine] = None,
    config: Optional[CoreConfig] = None,
    hierarchy_config: Optional[HierarchyConfig] = None,
    max_cycles: Optional[int] = None,
    probes: Sequence[str] = (),
    progress=None,
    executor=None,
) -> ShardedRunResult:
    """Replay one trace as ``shards`` parallel windows and stitch the stats.

    The trace's length must be discoverable: recorded trace files and
    in-memory traces know theirs; an unbounded generator source is
    materialised first (at which point sharding it is pointless but legal).
    ``probes`` must be registry names — every shard gets fresh instances, and
    windowed jobs cross the engine's process/serde boundary.  ``engine``
    (default: a serial, uncached one) supplies workers and the result cache.

    ``shards=1`` with ``warmup_uops=0`` is the exact path: the single window
    is normalised to an un-windowed job (same cache key as a plain replay)
    and its statistics are returned as-is, skipping the weighted stitch and
    its float round-off entirely.
    """
    source = as_source(trace)
    if source.length is None:
        source = source.materialized()
    plan = plan_shards(source.length, shards, warmup_uops)
    jobs = shard_jobs(
        source,
        plan,
        variant,
        config=config,
        hierarchy_config=hierarchy_config,
        max_cycles=max_cycles,
        probes=probes,
    )
    engine = engine or ExperimentEngine()
    results = engine.run_jobs(jobs, progress=progress, executor=executor)
    weights = plan.weights()
    shard_results = [
        ShardResult(shard=shard, weight=weight, result=result)
        for shard, weight, result in zip(plan.shards, weights, results)
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
        trace_name=source.name,
        total_uops=plan.total_uops,
        warmup_uops=plan.warmup_uops,
        shards=shard_results,
        stitched_stats=stitched,
        exact=plan.exact,
    )


# ------------------------------------------------------- declarative replays


@dataclass
class ReplaySpec(JSONSerializable):
    """A serde-round-trippable description of one sharded trace replay.

    The spec-to-job adapter for the experiment service: a submitted
    ``{"kind": "replay"}`` document parses into this, expands into
    :func:`shard_jobs` (for admission-time cache dedupe) and executes via
    :func:`run_replay_spec` — the same path ``trace replay --shards`` takes,
    minus the CLI.  ``trace_file`` must be a recorded trace path readable by
    the server; its *content digest* (not the path) keys the cache.
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


def run_replay_spec(
    spec: ReplaySpec,
    engine: Optional[ExperimentEngine] = None,
    progress=None,
    executor=None,
) -> ShardedRunResult:
    """Execute a :class:`ReplaySpec` through ``engine`` (the service path)."""
    from repro.workloads.source import FileTraceSource

    spec.validate()
    return run_sharded(
        FileTraceSource(spec.trace_file),
        variant=spec.variant,
        shards=spec.shards,
        warmup_uops=spec.warmup_uops,
        engine=engine,
        max_cycles=spec.max_cycles,
        probes=list(spec.probes),
        progress=progress,
        executor=executor,
    )


__all__ = [
    "ReplaySpec",
    "Shard",
    "ShardPlan",
    "ShardResult",
    "ShardedRunResult",
    "plan_shards",
    "run_replay_spec",
    "run_sharded",
    "shard_jobs",
]
