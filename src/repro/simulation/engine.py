"""Parallel experiment engine with an on-disk result cache.

The paper's evaluation is a cross-product of workloads x core variants
(optionally x configuration overrides, plus SimPoint windows).  Every cell of
that grid is one :class:`JobSpec`; sweeps (:func:`sweep_jobs`), studies,
shards and SimPoint intervals are pure functions that build them, and
:meth:`ExperimentEngine.run_jobs` runs any list of them:

* **in parallel** across processes (``workers > 1``) via
  ``concurrent.futures.ProcessPoolExecutor``, with a **serial fallback**
  (``workers = 1``, or when the platform cannot spawn processes);
* **deterministically** — jobs are expanded and reassembled in a fixed order,
  and both execution paths funnel each cell through the same worker function
  and the same JSON round-trip, so parallel and serial sweeps produce
  bit-identical :class:`~repro.simulation.experiment.ComparisonResult` tables;
* **incrementally** — with a ``cache_dir``, each finished cell is written to
  disk keyed by a content hash of (workload, variant, configuration), so
  re-running a sweep only simulates cells whose inputs changed.

Workloads are referenced *by name* through
:data:`repro.registry.WORKLOAD_REGISTRY` (worker processes rebuild the trace
locally rather than unpickling megabytes of micro-ops), and variants through
:data:`repro.registry.VARIANT_REGISTRY`; anything registered with
``@register_workload`` / ``@register_variant`` can be swept.  In-process
:class:`~repro.workloads.trace.Trace` and
:class:`~repro.workloads.source.TraceSource` objects are also accepted
(``JobSpec(trace=...)``) and cached by a digest of their content.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import repro.workloads  # noqa: F401  (imported for its workload registrations)
from repro.errors import JobCancelled
from repro.memory.hierarchy import HierarchyConfig
from repro.registry import PROBE_REGISTRY, VARIANT_REGISTRY, WORKLOAD_REGISTRY, build_workload
from repro.serde import JSONSerializable, canonical_json
from repro.simulation.experiment import BenchmarkResult, ComparisonResult
from repro.simulation.multicore import MultiCoreSpec, run_multicore
from repro.simulation.simulator import (
    SimulationRequest,
    SimulationResult,
    run_simulation,
)
from repro.uarch.config import CoreConfig
from repro.workloads.source import FileTraceSource, TraceSource, as_source
from repro.workloads.trace import Trace

#: Bump when the simulator or result schema changes incompatibly; invalidates
#: every cached result.  v5: multi-core co-runner specs joined the job
#: descriptor and results grew per-core/uncore sections.  v6: ``JobSpec``'s
#: ``trace_file`` path became an in-process ``trace``.
CACHE_SCHEMA_VERSION = 6


# --------------------------------------------------------------------- sweeps


@dataclass
class SweepSpec(JSONSerializable):
    """Declarative description of a sweep: benchmarks x variants x configs.

    ``workloads`` are registry names; ``variants`` defaults to every
    registered variant (in figure order); ``configs`` is a list of
    :class:`~repro.uarch.config.CoreConfig` override dicts — one comparison
    grid is produced per entry, enabling ablation sweeps in a single run.
    """

    workloads: Sequence[str]
    variants: Sequence[str] = ()
    num_uops: Optional[int] = None
    max_cycles: Optional[int] = None
    configs: Sequence[Dict[str, Any]] = field(default_factory=lambda: [{}])
    #: Instrumentation probes (registry names) attached to every cell; their
    #: reports land in each result's ``probe_reports``.  A list (not a tuple)
    #: so JSON round-trips compare equal.
    probes: Sequence[str] = field(default_factory=list)
    #: Co-runner cores sharing the uncore with every cell's own (workload,
    #: variant) pair; ``None`` keeps the classic single-core path.
    multicore: Optional[MultiCoreSpec] = None

    def resolved_probes(self) -> List[str]:
        """The probe list, validated against the registry."""
        probes = list(self.probes)
        for name in probes:
            PROBE_REGISTRY.get(name)  # raises KeyError on unknown names
        return probes

    def resolved_variants(self) -> List[str]:
        """The variant list with the baseline prepended, validated early."""
        return resolve_variants(self.variants)

    def resolved_workloads(self) -> List[str]:
        """The workload list, validated against the registry."""
        return resolve_workloads(self.workloads)


def resolve_variants(variants: Sequence[str]) -> List[str]:
    """A validated variant list with the ``ooo`` baseline always present.

    An empty selection means every registered variant (in figure order); the
    baseline is prepended when missing because every comparison normalises
    against it.  Shared by sweep and study specs so the two layers can never
    disagree about grid columns.
    """
    variant_list = list(variants) or VARIANT_REGISTRY.names()
    if "ooo" not in variant_list:
        variant_list.insert(0, "ooo")
    for variant in variant_list:
        VARIANT_REGISTRY.get(variant)  # raises KeyError on unknown names
    return variant_list


def resolve_workloads(workloads: Sequence[str]) -> List[str]:
    """The workload list, validated against the registry."""
    workload_list = list(workloads)
    for name in workload_list:
        WORKLOAD_REGISTRY.get(name)  # raises KeyError on unknown names
    return workload_list


def assemble_comparison(
    benchmarks: Sequence[str],
    variants: Sequence[str],
    results: Sequence[SimulationResult],
) -> ComparisonResult:
    """Fold a flat benchmark-major/variant-minor result list into a grid.

    ``results[i * len(variants) + j]`` must be benchmark ``i`` on variant
    ``j`` — the order every engine entry point expands jobs in.  Centralised
    so sweeps and studies can never drift apart on the index arithmetic.
    """
    return ComparisonResult(
        benchmarks=[
            BenchmarkResult(
                benchmark=name,
                results={
                    variants[j]: results[i * len(variants) + j]
                    for j in range(len(variants))
                },
            )
            for i, name in enumerate(benchmarks)
        ],
        variants=list(variants),
    )


@dataclass
class SweepCell(JSONSerializable):
    """One configuration point of a sweep and its full comparison grid."""

    overrides: Dict[str, Any]
    comparison: ComparisonResult


@dataclass
class SweepResult(JSONSerializable):
    """Everything a sweep produced, serialisable for ``python -m repro report``."""

    spec: SweepSpec
    cells: List[SweepCell]

    @property
    def comparison(self) -> ComparisonResult:
        """The comparison grid of a single-configuration sweep."""
        if len(self.cells) != 1:
            raise ValueError(
                f"sweep has {len(self.cells)} configuration cells; "
                "pick one explicitly via .cells"
            )
        return self.cells[0].comparison


@dataclass
class EngineRunStats:
    """Accounting for one engine run (exposed for logs and tests)."""

    total_jobs: int = 0
    cache_hits: int = 0
    simulated: int = 0


@dataclass
class JobSpec(JSONSerializable):
    """One fully-specified simulation cell: the engine's only unit of work.

    Unlike :class:`SweepSpec` — which applies one configuration to a whole
    benchmarks x variants grid — a ``JobSpec`` pins its *own* core and
    hierarchy configuration, so sweeps, studies, shards and SimPoint windows
    all expand into one list of jobs and run through one engine call (one
    process pool, one cache pass).  ``config``/``hierarchy_config`` default
    to the engine's own.

    The trace comes from exactly one of two places: ``workload`` (a registry
    name, rebuilt locally by each worker) or ``trace`` (an in-process
    :class:`~repro.workloads.trace.Trace` or
    :class:`~repro.workloads.source.TraceSource`).  A recorded
    :class:`~repro.workloads.source.FileTraceSource` ships to workers by path
    and is cache-keyed by its file digest; any other trace ships as the
    object itself and is keyed by a digest of its micro-ops.  ``window``
    restricts the run to the micro-ops in ``[start, end)`` and
    ``warmup_uops`` additionally simulates that many micro-ops *before*
    ``start`` without counting them in the returned statistics — the shard
    and SimPoint path.  A window spanning the whole of a known-length trace
    with no warmup is dropped at expansion, so it shares its cache entry with
    the plain job.  Everything folds into the content-hash cache key.
    """

    workload: str = ""
    variant: str = "pre"
    num_uops: Optional[int] = None
    config: Optional[CoreConfig] = None
    hierarchy_config: Optional[HierarchyConfig] = None
    max_cycles: Optional[int] = None
    probes: Sequence[str] = field(default_factory=list)
    trace: Optional[Union[Trace, TraceSource]] = None
    window: Optional[Tuple[int, int]] = None
    warmup_uops: int = 0
    #: Co-runner cores sharing the uncore with this job's own (workload,
    #: variant) pair as core 0.  Requires a ``workload`` source (co-runner
    #: traces are rebuilt by name in each worker) and is incompatible with
    #: ``window``/``warmup_uops``.
    multicore: Optional[MultiCoreSpec] = None


def sweep_jobs(spec: SweepSpec, engine: "ExperimentEngine") -> List[JobSpec]:
    """Expand a sweep into engine jobs: configs x workloads x variants.

    The spec-to-job adapter mirroring
    :func:`~repro.simulation.study.study_jobs`: :meth:`ExperimentEngine.run_sweep`
    runs these jobs and the service expands them for admission-time dedupe.
    Config overrides apply on top of ``engine.config``.
    """
    variants = spec.resolved_variants()
    workloads = spec.resolved_workloads()
    probes = spec.resolved_probes()
    jobs: List[JobSpec] = []
    for overrides in spec.configs or [{}]:
        config = (
            engine.config.with_overrides(**overrides) if overrides else engine.config
        )
        jobs.extend(
            JobSpec(
                workload=name,
                variant=variant,
                num_uops=spec.num_uops,
                config=config,
                max_cycles=spec.max_cycles,
                probes=probes,
                multicore=spec.multicore,
            )
            for name in workloads
            for variant in variants
        )
    return jobs


# ----------------------------------------------------------------- job model


def _trace_digest(trace: Union[Trace, TraceSource]) -> str:
    """Content hash of a trace: every micro-op field contributes."""
    hasher = hashlib.sha256()
    for uop in trace:
        hasher.update(
            repr(
                (
                    uop.pc,
                    uop.uop_class.value,
                    uop.srcs,
                    uop.dst,
                    uop.mem_addr,
                    uop.mem_size,
                    uop.branch_taken,
                    uop.branch_target,
                )
            ).encode()
        )
    return hasher.hexdigest()


def _job_payload(
    benchmark: str,
    variant: str,
    source: Dict[str, Any],
    trace: Optional[Union[Trace, "TraceSource"]],
    config: CoreConfig,
    hierarchy_config: Optional[HierarchyConfig],
    max_cycles: Optional[int],
    probes: Sequence[str] = (),
    window: Optional[Tuple[int, int]] = None,
    warmup_uops: int = 0,
    multicore: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    if warmup_uops < 0:
        raise ValueError(f"warmup_uops must be >= 0, got {warmup_uops}")
    if window is not None:
        start, end = window
        if start < 0 or end < start:
            raise ValueError(f"invalid window [{start}, {end})")
        if warmup_uops > start:
            raise ValueError(
                f"warmup_uops {warmup_uops} exceeds the {start} micro-ops "
                "before the window (clamp it first)"
            )
    elif warmup_uops:
        raise ValueError("warmup_uops requires a window")
    if multicore is not None and (window is not None or warmup_uops):
        raise ValueError("multicore jobs do not support window/warmup replay")
    return {
        "benchmark": benchmark,
        "variant": variant,
        "source": source,
        "trace": trace,
        "config": config.to_dict(),
        "hierarchy": hierarchy_config.to_dict() if hierarchy_config else None,
        "max_cycles": max_cycles,
        "probes": list(probes),
        "window": list(window) if window is not None else None,
        "warmup_uops": warmup_uops,
        "multicore": multicore,
    }


def _job_cache_key(payload: Dict[str, Any]) -> str:
    """Content hash identifying a job's full input.

    Trace-backed jobs (pre-built or recorded files) key on a digest of the
    trace *content*, never just its name, so edited or re-recorded traces can
    never serve stale cached cells.
    """
    source = payload["source"]
    if source["kind"] == "trace" and "digest" not in source:
        source = dict(source)
        source["digest"] = _trace_digest(payload["trace"])
    if source["kind"] == "file":
        # Drop the path: the same recorded trace must hit the cache from any
        # location.  The benchmark name stays (it appears in the result) but
        # normally comes from the file header, which the digest covers.
        source = {"kind": "file", "digest": source["digest"], "name": source["name"]}
    descriptor = {
        "schema": CACHE_SCHEMA_VERSION,
        "variant": payload["variant"],
        "source": source,
        "config": payload["config"],
        "hierarchy": payload["hierarchy"],
        "max_cycles": payload["max_cycles"],
        "probes": payload.get("probes", []),
        "window": payload.get("window"),
        "warmup_uops": payload.get("warmup_uops", 0),
        # Co-runner spec *and* co-runner workload tokens: editing a
        # neighbour's generator invalidates the cell just like editing the
        # primary workload does.
        "multicore": payload.get("multicore"),
    }
    return hashlib.sha256(canonical_json(descriptor).encode()).hexdigest()


def _workload_token(entry: Any) -> Any:
    """Cache-token for a registered workload.

    An explicit ``cache_token`` in the registry metadata wins.  Otherwise a
    best-effort digest of the factory's code object and defaults is derived,
    so editing a custom workload's generator invalidates its cached cells
    instead of silently serving stale results.
    """
    token = entry.metadata.get("cache_token")
    if token is not None:
        return token
    factory = entry.factory
    func = getattr(factory, "__func__", factory)  # unwrap bound methods
    code = getattr(func, "__code__", None)
    if code is None:
        return None
    return {
        "qualname": getattr(func, "__qualname__", entry.name),
        "code": hashlib.sha256(code.co_code).hexdigest(),
        "consts": repr(code.co_consts),
        "defaults": repr(getattr(func, "__defaults__", None)),
    }


def _multicore_payload(spec: MultiCoreSpec) -> Dict[str, Any]:
    """Validate a co-runner spec and build its cache-keyable payload entry.

    Co-runner workloads/variants are validated against the registries up
    front (before any worker spawns), and each co-runner workload contributes
    its :func:`_workload_token` so editing a neighbour's trace generator
    invalidates the cached cell.
    """
    tokens = []
    for assignment in spec.cores:
        if not assignment.workload:
            raise ValueError("multicore co-runner needs a workload name")
        VARIANT_REGISTRY.get(assignment.variant)
        if assignment.num_uops is not None and assignment.num_uops <= 0:
            raise ValueError(
                f"co-runner num_uops must be positive, got {assignment.num_uops}"
            )
        tokens.append(_workload_token(WORKLOAD_REGISTRY.get(assignment.workload)))
    return {"spec": spec.to_dict(), "tokens": tokens}


def _execute_job(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one (benchmark, variant, config) cell; returns a JSON-able result.

    Top-level so it pickles into worker processes.  Both the serial and the
    parallel path call exactly this function, which is what makes them
    equivalent by construction.
    """
    source = payload["source"]
    if source["kind"] == "workload":
        trace = build_workload(source["name"], num_uops=source.get("num_uops"))
    elif source["kind"] == "file":
        # Rebuilt locally so worker processes stream the file instead of
        # unpickling megabytes of micro-ops.
        trace = FileTraceSource(source["path"], name=source.get("name"))
    else:
        trace = payload["trace"]
    config = CoreConfig.from_dict(payload["config"])
    hierarchy_config = (
        HierarchyConfig.from_dict(payload["hierarchy"]) if payload["hierarchy"] else None
    )
    multicore = payload.get("multicore")
    if multicore is not None:
        spec = MultiCoreSpec.from_dict(multicore["spec"])
        primary_uops = source.get("num_uops")
        pairs = [(trace, payload["variant"])]
        for assignment in spec.cores:
            num_uops = (
                assignment.num_uops
                if assignment.num_uops is not None
                else primary_uops
            )
            pairs.append(
                (build_workload(assignment.workload, num_uops=num_uops),
                 assignment.variant)
            )
        result = run_multicore(
            pairs,
            config=config,
            hierarchy_config=hierarchy_config,
            max_cycles=payload["max_cycles"],
            probes=payload.get("probes") or (),
            address_stride=spec.address_stride,
        )
        return result.to_dict()
    window = payload.get("window")
    warmup_uops = 0
    if window is not None:
        # The window is the *measured* [start, end); the warmup prefix is
        # simulated before it (warm caches/predictors/queues) but excluded
        # from the returned stats by run_simulation's stats_start seam.
        warmup_uops = payload.get("warmup_uops") or 0
        start, end = window
        base = as_source(trace)
        trace = base.window(start - warmup_uops, end, name=base.name)
    request = SimulationRequest(
        variant=payload["variant"],
        config=config,
        hierarchy_config=hierarchy_config,
        max_cycles=payload["max_cycles"],
        probes=list(payload.get("probes") or ()),
        warmup_uops=warmup_uops,
    )
    result = run_simulation(trace, request)
    return result.to_dict()


def _execute_batch(payloads: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Run a batch of jobs in one worker (jobs sharing a pickled trace)."""
    return [_execute_job(payload) for payload in payloads]


def execute_cell_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Public cell-execution seam: run one expanded job payload locally.

    This is exactly what the engine's own serial path and process-pool
    workers run per cell — exposed so *remote* executors (the fleet worker of
    :mod:`repro.service.worker`, the coordinator's local fallback) funnel
    through the same single function and stay bit-identical by construction.
    The payload must be JSON-shaped (``trace`` is ``None``; sources are
    ``workload``/``file`` descriptors), which every service-submitted
    document guarantees.
    """
    return _execute_job(payload)


def job_cache_key(payload: Dict[str, Any]) -> str:
    """Public content-hash seam for one expanded job payload.

    The fleet layer uses this as the *cell identity*: stable across daemon
    restarts (it hashes the cell's full input, not its position in a run),
    so journaled per-cell attempt counts survive a crash and a poisoned cell
    stays quarantined after recovery.
    """
    return _job_cache_key(payload)


# --------------------------------------------------------------- result cache


@dataclass
class CacheStats(JSONSerializable):
    """A point-in-time snapshot of a :class:`ResultCache` directory."""

    directory: str
    entries: int
    total_bytes: int
    max_bytes: Optional[int] = None
    hits: int = 0
    misses: int = 0
    evictions: int = 0


@dataclass
class PruneResult(JSONSerializable):
    """What one :meth:`ResultCache.prune` pass removed and what remains."""

    evicted: int
    freed_bytes: int
    remaining_entries: int
    remaining_bytes: int


class ResultCache:
    """On-disk cache of finished simulation cells, keyed by content hash.

    One JSON file per cell.  Corrupt or unreadable entries degrade to cache
    misses; writes go through a temp file + atomic rename so a crashed run —
    or a second engine/server sharing the directory — never observes a
    half-written entry.

    With ``max_bytes`` set, the cache is size-bounded: every write is
    followed by a least-recently-*used* eviction pass (hits refresh an
    entry's mtime, so recency means last use, not last write).  ``prune``
    can also be invoked explicitly — the ``repro cache prune`` CLI and the
    service's ``POST /v1/cache/prune`` endpoint do exactly that.
    """

    def __init__(
        self, directory: Union[str, Path], max_bytes: Optional[int] = None
    ) -> None:
        if max_bytes is not None and max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def path_for(self, key: str) -> Path:
        """The file that does or would hold ``key``'s result."""
        return self.directory / f"{key}.json"

    def contains(self, key: str) -> bool:
        """Whether ``key`` has a cached entry (no counters, no payload read).

        The admission-time dedupe probe: the service counts how many of a
        submitted document's cells are already cached without perturbing the
        hit/miss accounting of the run that will actually consume them.
        """
        return self.path_for(key).is_file()

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """Return the cached payload for ``key``, or ``None`` on a miss."""
        path = self.path_for(key)
        try:
            with path.open("r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            self.misses += 1
            return None
        try:
            os.utime(path)  # refresh recency so LRU eviction spares hot entries
        except OSError:
            pass  # entry may have raced with another process's prune
        self.hits += 1
        return payload

    def put(self, key: str, payload: Dict[str, Any]) -> None:
        """Store ``payload`` under ``key`` atomically."""
        path = self.path_for(key)
        fd, tmp_name = tempfile.mkstemp(
            dir=str(self.directory), prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        if self.max_bytes is not None:
            self.prune()

    def _entries(self) -> List[Tuple[Path, int, float]]:
        """Every live entry as ``(path, size, mtime)``; racing deletes skipped."""
        entries: List[Tuple[Path, int, float]] = []
        for path in self.directory.glob("*.json"):
            # pathlib's "*" matches dotfiles, so exclude in-flight temp files.
            if path.name.startswith("."):
                continue
            try:
                stat = path.stat()
            except OSError:
                continue  # evicted/removed by a concurrent process
            entries.append((path, stat.st_size, stat.st_mtime))
        return entries

    def stats(self) -> CacheStats:
        """Entry count and on-disk footprint, plus this instance's counters."""
        entries = self._entries()
        return CacheStats(
            directory=str(self.directory),
            entries=len(entries),
            total_bytes=sum(size for _, size, _ in entries),
            max_bytes=self.max_bytes,
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
        )

    def prune(self, max_bytes: Optional[int] = None) -> PruneResult:
        """Evict least-recently-used entries until the cache fits ``max_bytes``.

        ``max_bytes`` defaults to the cache's own bound; passing an explicit
        value (including ``0``, meaning "empty the cache") does a one-off
        pass without changing the configured bound.  Entries another process
        already removed are skipped, so concurrent prunes are safe.
        """
        bound = self.max_bytes if max_bytes is None else max_bytes
        if bound is None:
            raise ValueError("prune needs max_bytes (no bound configured)")
        if bound < 0:
            raise ValueError(f"max_bytes must be >= 0, got {bound}")
        entries = sorted(self._entries(), key=lambda entry: entry[2])  # oldest first
        total = sum(size for _, size, _ in entries)
        evicted = 0
        freed = 0
        for path, size, _ in entries:
            if total <= bound:
                break
            try:
                os.unlink(path)
            except OSError:
                continue  # already gone: someone else evicted it
            total -= size
            freed += size
            evicted += 1
        self.evictions += evicted
        return PruneResult(
            evicted=evicted,
            freed_bytes=freed,
            remaining_entries=len(entries) - evicted,
            remaining_bytes=total,
        )

    def __len__(self) -> int:
        return len(self._entries())


# --------------------------------------------------------------------- engine


class ExperimentEngine:
    """Runs :class:`JobSpec` cells in parallel, serially, or from cache.

    Parameters
    ----------
    workers:
        Process count for the pool; ``1`` runs everything in-process (the
        serial fallback).  Results are identical either way.
    cache_dir:
        Directory for the :class:`ResultCache`; ``None`` disables caching.
    config:
        Base :class:`~repro.uarch.config.CoreConfig` for every job (sweep
        configuration overrides are applied on top of it).
    hierarchy_config:
        Optional memory-hierarchy configuration shared by every job.
    """

    def __init__(
        self,
        workers: int = 1,
        cache_dir: Optional[Union[str, Path]] = None,
        config: Optional[CoreConfig] = None,
        hierarchy_config: Optional[HierarchyConfig] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        self.config = config or CoreConfig()
        self.hierarchy_config = hierarchy_config
        self.last_run_stats = EngineRunStats()

    # ----------------------------------------------------------- public API

    def expand_sweep_payloads(self, spec: SweepSpec) -> List[Dict[str, Any]]:
        """The payloads of :func:`sweep_jobs` (see :meth:`expand_job_payloads`)."""
        return self.expand_job_payloads(sweep_jobs(spec, self))

    def cache_probe(self, payloads: Sequence[Dict[str, Any]]) -> Tuple[int, int]:
        """``(cached, total)`` cells among ``payloads``, without running them.

        Uses :meth:`ResultCache.contains`, so the probe never perturbs
        hit/miss accounting.  With no cache configured everything counts as
        uncached.
        """
        if self.cache is None:
            return 0, len(payloads)
        cached = sum(
            1 for payload in payloads if self.cache.contains(_job_cache_key(payload))
        )
        return cached, len(payloads)

    def run_sweep(self, spec: SweepSpec, progress=None, executor=None) -> SweepResult:
        """Run a full sweep spec and return one comparison grid per config."""
        variants = spec.resolved_variants()
        workloads = spec.resolved_workloads()
        results = self.run_jobs(
            sweep_jobs(spec, self), progress=progress, executor=executor
        )
        grid = len(workloads) * len(variants)
        cells = [
            SweepCell(
                overrides=dict(overrides),
                comparison=assemble_comparison(
                    workloads, variants, results[index * grid : (index + 1) * grid]
                ),
            )
            for index, overrides in enumerate(spec.configs or [{}])
        ]
        return SweepResult(spec=spec, cells=cells)

    def expand_job_payloads(self, jobs: Sequence[JobSpec]) -> List[Dict[str, Any]]:
        """Validate and expand :class:`JobSpec`\\ s into engine job payloads.

        The one expander, and the admission seam for the experiment service:
        expanding without running lets a caller compute cache keys
        (:meth:`cache_probe`) before scheduling anything.  Unknown
        workload/variant/probe names, probe instances, non-positive
        ``num_uops`` and malformed windows all fail here, before any worker
        spawns.  Each distinct trace is described (and, with a cache,
        digested) once per call.
        """
        payloads: List[Dict[str, Any]] = []
        sources: Dict[Any, Tuple[str, Dict[str, Any], Optional[int]]] = {}
        for job in jobs:
            VARIANT_REGISTRY.get(job.variant)
            for name in job.probes:
                if not isinstance(name, str):
                    raise TypeError(
                        "jobs accept probe registry names only (got "
                        f"{type(name).__name__}): jobs cross a process boundary "
                        "and each run needs fresh probe instances"
                    )
                PROBE_REGISTRY.get(name)
            if bool(job.workload) == (job.trace is not None):
                raise ValueError("JobSpec needs exactly one of workload= or trace=")
            if job.num_uops is not None and job.num_uops <= 0:
                raise ValueError(f"num_uops must be positive, got {job.num_uops}")
            if job.multicore is not None and job.trace is not None:
                raise ValueError(
                    "multicore jobs need a workload= source (co-runner traces "
                    "are rebuilt by registry name in each worker)"
                )
            key = (job.workload, job.num_uops) if job.trace is None else id(job.trace)
            if key not in sources:
                sources[key] = self._describe_source(job)
            benchmark, source, length = sources[key]
            window = job.window
            if (
                window is not None
                and window[0] == 0
                and job.warmup_uops == 0
                and length is not None
                and window[1] >= length
            ):
                window = None  # whole trace: identical to an un-windowed job
            payloads.append(
                _job_payload(
                    benchmark=benchmark,
                    variant=job.variant,
                    source=source,
                    trace=job.trace if source["kind"] == "trace" else None,
                    config=job.config if job.config is not None else self.config,
                    hierarchy_config=(
                        job.hierarchy_config
                        if job.hierarchy_config is not None
                        else self.hierarchy_config
                    ),
                    max_cycles=job.max_cycles,
                    probes=job.probes,
                    window=window,
                    warmup_uops=job.warmup_uops,
                    multicore=(
                        _multicore_payload(job.multicore)
                        if job.multicore is not None
                        else None
                    ),
                )
            )
        return payloads

    def _describe_source(
        self, job: JobSpec
    ) -> Tuple[str, Dict[str, Any], Optional[int]]:
        """``(benchmark, source descriptor, known length)`` of a job's trace.

        Digests feed only the cache key, so they are skipped (a potentially
        huge file or trace left unhashed) when no cache is configured.
        """
        if job.trace is None:
            descriptor = {
                "kind": "workload",
                "name": job.workload,
                "num_uops": job.num_uops,
                "token": _workload_token(WORKLOAD_REGISTRY.get(job.workload)),
            }
            return job.workload, descriptor, None
        source = as_source(job.trace)
        if isinstance(source, FileTraceSource):
            # Workers reopen the file by path instead of unpickling micro-ops.
            descriptor = {"kind": "file", "name": source.name, "path": str(source.path)}
            if self.cache is not None:
                descriptor["digest"] = source.digest()
        else:
            descriptor = {"kind": "trace", "name": source.name}
            if self.cache is not None:
                descriptor["digest"] = _trace_digest(source)
        return source.name, descriptor, source.length

    # ------------------------------------------------------------ execution

    def run_jobs(
        self, jobs: Sequence[JobSpec], progress=None, executor=None
    ) -> List[SimulationResult]:
        """Expand ``jobs`` and run them in order; cache first, then pool or serial.

        Results come back in job order and ``last_run_stats`` accounts for
        the whole batch.  ``progress`` (optional) is called as
        ``progress(done, total, kind)`` with ``kind`` in
        ``{"cached", "simulated"}`` after every resolved cell — the service
        streams these as job events.  Simulated cells are written to the
        cache *as they complete* (not after the whole batch), so a killed run
        resumes from every cell that finished.  A ``progress`` callback may
        raise :class:`~repro.errors.JobCancelled` to abort the run between
        cells; outstanding pool work is then cancelled.

        ``executor`` (optional) is the cell-batch execution seam: a callable
        ``executor(payloads, on_result)`` that replaces the pool/serial path
        for the *uncached* cells — the experiment service installs its fleet
        coordinator here to farm cells out to remote workers.  It must invoke
        ``on_result(offset, result_dict)`` exactly once per payload (any
        order); cache writes and progress accounting stay on this side, so a
        distributed run is cache-accounted identically to a local one.
        """
        payloads = self.expand_job_payloads(jobs)
        stats = EngineRunStats(total_jobs=len(payloads))
        outputs: List[Optional[Dict[str, Any]]] = [None] * len(payloads)
        pending: List[int] = []
        keys: List[Optional[str]] = [None] * len(payloads)
        done = 0

        for index, payload in enumerate(payloads):
            if self.cache is not None:
                keys[index] = _job_cache_key(payload)
                cached = self.cache.get(keys[index])
                if cached is not None:
                    outputs[index] = cached
                    stats.cache_hits += 1
                    done += 1
                    if progress is not None:
                        progress(done, len(payloads), "cached")
                    continue
            pending.append(index)

        if pending:

            def on_result(offset: int, produced: Dict[str, Any]) -> None:
                nonlocal done
                index = pending[offset]
                outputs[index] = produced
                stats.simulated += 1
                if self.cache is not None and keys[index] is not None:
                    self.cache.put(keys[index], produced)
                done += 1
                if progress is not None:
                    progress(done, len(payloads), "simulated")

            self._execute_pending(
                [payloads[i] for i in pending], on_result, executor=executor
            )

        self.last_run_stats = stats
        return [SimulationResult.from_dict(output) for output in outputs]

    def _execute_pending(
        self, payloads: List[Dict[str, Any]], on_result, executor=None
    ) -> None:
        """Execute uncached payloads, delivering each result via ``on_result``.

        ``on_result(offset, produced)`` is invoked in submission order.  On
        SIGINT/SIGTERM (or a cancellation raised by the caller's callback),
        outstanding futures are cancelled and worker processes terminated
        before the exception propagates — a Ctrl-C no longer tracebacks out
        of ``ProcessPoolExecutor``'s shutdown machinery with workers leaked.

        With ``executor`` set, the whole pending batch is handed to it
        instead (see :meth:`run_jobs`); the executor owns scheduling,
        retries, and fallback, and delivers results through ``on_result``.
        """
        if executor is not None:
            executor(payloads, on_result)
            return
        batches = self._batch_payloads(payloads)
        delivered = 0
        if self.workers > 1 and len(batches) > 1:
            pool: Optional[ProcessPoolExecutor] = None
            futures: List[Any] = []
            try:
                max_workers = min(self.workers, len(batches))
                pool = ProcessPoolExecutor(max_workers=max_workers)
                futures = [pool.submit(_execute_batch, batch) for batch in batches]
                for future in futures:
                    for result in future.result():
                        on_result(delivered, result)
                        delivered += 1
                pool.shutdown(wait=True)
                return
            except (KeyboardInterrupt, SystemExit, JobCancelled):
                self._abort_pool(pool, futures)
                raise
            except (OSError, PermissionError, BrokenProcessPool):
                # Process pools are unavailable or the workers were killed
                # (restricted sandbox, missing /dev/shm, OOM killer, ...):
                # fall back to in-process execution, which produces identical
                # results.
                if pool is not None:
                    pool.shutdown(wait=False, cancel_futures=True)
            except KeyError:
                # A worker could not resolve a registry name that the parent
                # validated before submission: the platform's process start
                # method (spawn) did not inherit runtime registrations.  The
                # in-process fallback has them.
                if pool is not None:
                    pool.shutdown(wait=False, cancel_futures=True)
        # Serial path, also the pool's fallback: skip results a partially
        # successful pool run already delivered (they are cached/recorded).
        for offset, payload in enumerate(payloads):
            if offset < delivered:
                continue
            on_result(offset, _execute_job(payload))

    @staticmethod
    def _abort_pool(pool: Optional[ProcessPoolExecutor], futures: List[Any]) -> None:
        """Best-effort immediate teardown of an interrupted process pool."""
        if pool is None:
            return
        for future in futures:
            future.cancel()
        pool.shutdown(wait=False, cancel_futures=True)
        # cancel_futures only stops *pending* work; running workers would
        # otherwise keep simulating until their current batch finishes.
        for process in list((getattr(pool, "_processes", None) or {}).values()):
            try:
                process.terminate()
            except Exception:
                pass

    @staticmethod
    def _batch_payloads(payloads: List[Dict[str, Any]]) -> List[List[Dict[str, Any]]]:
        """Group consecutive jobs sharing one pre-built trace into one batch.

        Trace jobs are expanded trace-major, so batching by identity ships
        each (potentially large) trace to a worker once instead of once per
        variant.  Registry-named jobs stay singleton batches for maximum
        scheduling freedom — and so do windowed jobs: a sharded replay's
        whole point is to spread one trace's windows across workers, so they
        must never collapse into a single worker's batch.
        """
        batches: List[List[Dict[str, Any]]] = []
        for payload in payloads:
            if (
                batches
                and payload["trace"] is not None
                and payload.get("window") is None
                and batches[-1][-1].get("window") is None
                and batches[-1][-1]["trace"] is payload["trace"]
            ):
                batches[-1].append(payload)
            else:
                batches.append([payload])
        return batches


__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CacheStats",
    "EngineRunStats",
    "ExperimentEngine",
    "JobSpec",
    "PruneResult",
    "ResultCache",
    "SweepCell",
    "SweepResult",
    "SweepSpec",
    "execute_cell_payload",
    "job_cache_key",
    "sweep_jobs",
]
