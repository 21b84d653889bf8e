"""Simulator-throughput benchmarking: ``python -m repro bench``.

The ROADMAP's north star is a simulator that "runs as fast as the hardware
allows", which is only meaningful if simulated-micro-ops-per-second is a
*measured, recorded* quantity.  This module is the perf counterpart of the
golden-digest suite (:mod:`repro.simulation.golden`): it runs a fixed matrix
of registered workloads x variants, times each cell wall-clock, and writes a
``BENCH_<n>.json`` report at the repository root so every optimization PR
leaves a comparable data point behind.

Each cell records:

* wall-clock seconds (best of ``repeats`` runs, trace construction excluded),
* throughput in committed micro-ops per second and simulated cycles per
  second,
* the :func:`~repro.simulation.golden.stats_digest` of the run's
  ``CoreStats`` — so a perf comparison that accidentally changed *timing*
  is caught by the same report that celebrates the speedup.

``compare_reports`` prints per-cell deltas between two reports (the
``--compare`` CLI flag), flagging digest mismatches loudly.
"""

from __future__ import annotations

import json
import platform
import re
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.serde import JSONSerializable
from repro.simulation.golden import (
    DEFAULT_GOLDEN_VARIANTS,
    DEFAULT_GOLDEN_WORKLOADS,
    stats_digest,
)
from repro.simulation.simulator import SimulationRequest, run_simulation

#: Report schema; bump on incompatible field changes.
BENCH_SCHEMA_VERSION = 1

#: The default matrix is the golden suite's Figure-2 matrix — one canonical
#: definition, so the digest-pinned cells and the timed cells never drift.
DEFAULT_BENCH_WORKLOADS = DEFAULT_GOLDEN_WORKLOADS
DEFAULT_BENCH_VARIANTS = DEFAULT_GOLDEN_VARIANTS
DEFAULT_BENCH_UOPS = 3_000

#: The ``--quick`` matrix: a CI-friendly smoke subset.
QUICK_BENCH_WORKLOADS = ("mcf", "milc")
QUICK_BENCH_VARIANTS = ("ooo", "pre")
QUICK_BENCH_UOPS = 800

#: The ``--shards`` scenario: one long recorded trace replayed end to end,
#: the workload sharded replay exists for.  A single workload/variant cell —
#: the point is aggregate throughput on one trace, not a matrix.
SHARD_BENCH_WORKLOAD = "sphinx3"
SHARD_BENCH_VARIANT = "ooo"
SHARD_BENCH_UOPS = 60_000

_BENCH_FILE_RE = re.compile(r"^BENCH_(\d+)\.json$")


def _peak_rss_bytes() -> Optional[int]:
    """Peak resident set size of this process, or ``None`` when unavailable."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports kilobytes, macOS reports bytes.
    return peak if sys.platform == "darwin" else peak * 1024


@dataclass
class BenchCell(JSONSerializable):
    """One timed (workload, variant) simulation."""

    workload: str
    variant: str
    num_uops: int
    committed_uops: int
    cycles: int
    wall_seconds: float
    uops_per_second: float
    cycles_per_second: float
    stats_digest: str
    #: Shard count of a sharded-replay cell; 1 for ordinary serial cells.
    shards: int = 1


@dataclass
class BenchReport(JSONSerializable):
    """Everything one ``python -m repro bench`` run measured."""

    schema: int = BENCH_SCHEMA_VERSION
    python: str = ""
    platform: str = ""
    num_uops: int = 0
    repeats: int = 1
    workloads: List[str] = field(default_factory=list)
    variants: List[str] = field(default_factory=list)
    cells: List[BenchCell] = field(default_factory=list)
    total_wall_seconds: float = 0.0
    total_uops_per_second: float = 0.0
    total_cycles_per_second: float = 0.0
    peak_rss_bytes: Optional[int] = None

    def cell(self, workload: str, variant: str) -> Optional[BenchCell]:
        """The cell for (workload, variant), or ``None`` when absent."""
        for cell in self.cells:
            if cell.workload == workload and cell.variant == variant:
                return cell
        return None


def run_bench(
    workloads: Sequence[str] = DEFAULT_BENCH_WORKLOADS,
    variants: Sequence[str] = DEFAULT_BENCH_VARIANTS,
    num_uops: int = DEFAULT_BENCH_UOPS,
    repeats: int = 1,
    progress=None,
) -> BenchReport:
    """Time the workload x variant matrix; return the full report.

    Traces are built once per workload outside the timed region, so the
    numbers measure the simulation engine (core + hierarchy + energy model),
    not workload generation.  ``wall_seconds`` is the best of ``repeats``
    runs — the least-noise estimator for a deterministic computation.
    ``progress`` (optional) is called with a one-line string per cell.
    """
    from repro.registry import build_workload  # local: avoids import cycles

    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    cells: List[BenchCell] = []
    for workload in workloads:
        trace = build_workload(workload, num_uops=num_uops)
        for variant in variants:
            best: Optional[float] = None
            result = None
            for _ in range(repeats):
                start = time.perf_counter()
                result = run_simulation(trace, SimulationRequest(variant=variant))
                elapsed = time.perf_counter() - start
                if best is None or elapsed < best:
                    best = elapsed
            assert result is not None and best is not None
            wall = max(best, 1e-9)
            cell = BenchCell(
                workload=workload,
                variant=variant,
                num_uops=num_uops,
                committed_uops=result.stats.committed_uops,
                cycles=result.stats.cycles,
                wall_seconds=wall,
                uops_per_second=result.stats.committed_uops / wall,
                cycles_per_second=result.stats.cycles / wall,
                stats_digest=stats_digest(result.stats),
            )
            cells.append(cell)
            if progress is not None:
                progress(
                    f"{workload:12s} {variant:16s} {cell.wall_seconds:8.3f}s "
                    f"{cell.uops_per_second:12.0f} uops/s"
                )
    total_wall = sum(cell.wall_seconds for cell in cells)
    total_uops = sum(cell.committed_uops for cell in cells)
    total_cycles = sum(cell.cycles for cell in cells)
    return BenchReport(
        schema=BENCH_SCHEMA_VERSION,
        python=platform.python_version(),
        platform=platform.platform(),
        num_uops=num_uops,
        repeats=repeats,
        workloads=list(workloads),
        variants=list(variants),
        cells=cells,
        total_wall_seconds=total_wall,
        total_uops_per_second=(total_uops / total_wall) if total_wall else 0.0,
        total_cycles_per_second=(total_cycles / total_wall) if total_wall else 0.0,
        peak_rss_bytes=_peak_rss_bytes(),
    )


def run_sharded_bench(
    workload: str = SHARD_BENCH_WORKLOAD,
    variant: str = SHARD_BENCH_VARIANT,
    num_uops: int = SHARD_BENCH_UOPS,
    shards: int = 4,
    workers: int = 1,
    warmup_uops: int = 0,
    repeats: int = 1,
    progress=None,
) -> BenchReport:
    """Time one long-trace sharded replay end to end; return a one-cell report.

    The workload is recorded to a temporary trace file first (sharded replay
    targets recorded traces, and a file source lets worker processes stream
    their shards instead of unpickling micro-ops), and only the
    :func:`~repro.simulation.shard.run_sharded` call is timed — no result
    cache, so every repeat simulates.  ``committed_uops`` is the stitched
    whole-trace count; warmup commits cost wall-clock but are not credited,
    so throughput is conservative.
    """
    import tempfile

    from repro.registry import build_workload_source  # local: avoids import cycles
    from repro.simulation.shard import run_sharded
    from repro.workloads.source import FileTraceSource, write_trace_file

    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    with tempfile.TemporaryDirectory(prefix="repro-shard-bench-") as tmp:
        trace_path = Path(tmp) / f"{workload}.trc"
        write_trace_file(
            trace_path, build_workload_source(workload, num_uops=num_uops), name=workload
        )
        source = FileTraceSource(trace_path)
        best: Optional[float] = None
        result = None
        for _ in range(repeats):
            start = time.perf_counter()
            result = run_sharded(
                source,
                variant=variant,
                shards=shards,
                warmup_uops=warmup_uops,
                workers=workers,
            )
            elapsed = time.perf_counter() - start
            if best is None or elapsed < best:
                best = elapsed
    assert result is not None and best is not None
    wall = max(best, 1e-9)
    stats = result.stitched_stats
    cell = BenchCell(
        workload=workload,
        variant=variant,
        num_uops=num_uops,
        committed_uops=stats.committed_uops,
        cycles=stats.cycles,
        wall_seconds=wall,
        uops_per_second=stats.committed_uops / wall,
        cycles_per_second=stats.cycles / wall,
        stats_digest=stats_digest(stats),
        shards=shards,
    )
    if progress is not None:
        progress(
            f"{workload:12s} {variant:16s} {cell.wall_seconds:8.3f}s "
            f"{cell.uops_per_second:12.0f} uops/s "
            f"({shards} shard(s), {workers} worker(s))"
        )
    return BenchReport(
        schema=BENCH_SCHEMA_VERSION,
        python=platform.python_version(),
        platform=platform.platform(),
        num_uops=num_uops,
        repeats=repeats,
        workloads=[workload],
        variants=[variant],
        cells=[cell],
        total_wall_seconds=wall,
        total_uops_per_second=cell.uops_per_second,
        total_cycles_per_second=cell.cycles_per_second,
        peak_rss_bytes=_peak_rss_bytes(),
    )


# ------------------------------------------------------------------- reports


def next_bench_path(directory: Union[str, Path] = ".") -> Path:
    """The next free ``BENCH_<n>.json`` path in ``directory`` (repo root)."""
    directory = Path(directory)
    taken = [
        int(match.group(1))
        for path in directory.glob("BENCH_*.json")
        if (match := _BENCH_FILE_RE.match(path.name))
    ]
    return directory / f"BENCH_{max(taken) + 1 if taken else 0}.json"


def write_report(report: BenchReport, path: Union[str, Path]) -> Path:
    """Write ``report`` as pretty-printed JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_report(path: Union[str, Path]) -> BenchReport:
    """Load a report written by :func:`write_report`."""
    with Path(path).open("r", encoding="utf-8") as handle:
        return BenchReport.from_dict(json.load(handle))


def format_report(report: BenchReport) -> str:
    """Human-readable throughput table for one report."""
    lines = [
        f"Simulator throughput ({report.num_uops} uops/cell, "
        f"best of {report.repeats}, Python {report.python})",
        f"{'workload':12s} {'variant':16s} {'wall [s]':>10s} "
        f"{'uops/s':>12s} {'cycles/s':>12s}",
    ]
    for cell in report.cells:
        lines.append(
            f"{cell.workload:12s} {cell.variant:16s} {cell.wall_seconds:10.3f} "
            f"{cell.uops_per_second:12.0f} {cell.cycles_per_second:12.0f}"
        )
    lines.append(
        f"{'TOTAL':12s} {'':16s} {report.total_wall_seconds:10.3f} "
        f"{report.total_uops_per_second:12.0f} {report.total_cycles_per_second:12.0f}"
    )
    if report.peak_rss_bytes is not None:
        lines.append(f"peak RSS: {report.peak_rss_bytes / (1 << 20):.1f} MiB")
    return "\n".join(lines)


@dataclass
class CellDelta(JSONSerializable):
    """One matched cell of a report comparison.

    ``speedup`` is current over baseline throughput (``None`` for cells the
    baseline lacks).  ``digests_comparable`` is true only when both runs
    simulated the same ``num_uops``, in which case ``digest_diverged`` says
    whether the timing model changed between the reports.
    """

    workload: str
    variant: str
    baseline_uops_per_second: Optional[float]
    current_uops_per_second: float
    speedup: Optional[float]
    digests_comparable: bool = False
    digest_diverged: bool = False


def compare_cells(baseline: BenchReport, current: BenchReport) -> List[CellDelta]:
    """Match ``current``'s cells against ``baseline`` by (workload, variant)."""
    deltas: List[CellDelta] = []
    for cell in current.cells:
        base = baseline.cell(cell.workload, cell.variant)
        if base is None:
            deltas.append(
                CellDelta(
                    workload=cell.workload,
                    variant=cell.variant,
                    baseline_uops_per_second=None,
                    current_uops_per_second=cell.uops_per_second,
                    speedup=None,
                )
            )
            continue
        # Stitched (sharded) stats are estimates, so digests only gate cells
        # that ran the same uop count with the same shard plan.
        comparable = base.num_uops == cell.num_uops and base.shards == cell.shards
        deltas.append(
            CellDelta(
                workload=cell.workload,
                variant=cell.variant,
                baseline_uops_per_second=base.uops_per_second,
                current_uops_per_second=cell.uops_per_second,
                speedup=(
                    cell.uops_per_second / base.uops_per_second
                    if base.uops_per_second
                    else 0.0
                ),
                digests_comparable=comparable,
                digest_diverged=comparable and base.stats_digest != cell.stats_digest,
            )
        )
    return deltas


def comparison_failures(
    deltas: Sequence[CellDelta], max_slowdown_percent: Optional[float] = None
) -> List[str]:
    """Regression-gate verdicts for a comparison, one message per violation.

    Digest divergence on comparable cells always fails (a perf change must
    not alter timing).  With ``max_slowdown_percent`` set, any matched cell
    whose throughput dropped by more than that fraction fails too.
    """
    failures: List[str] = []
    for delta in deltas:
        if delta.digest_diverged:
            failures.append(
                f"{delta.workload}/{delta.variant}: stats digest diverged "
                f"(timing model changed at equal num_uops)"
            )
        if (
            max_slowdown_percent is not None
            and delta.speedup is not None
            and delta.speedup < 1.0 - max_slowdown_percent / 100.0
        ):
            failures.append(
                f"{delta.workload}/{delta.variant}: {delta.speedup:.2f}x of baseline "
                f"throughput (more than {max_slowdown_percent:.0f}% slowdown)"
            )
    return failures


def compare_reports(baseline: BenchReport, current: BenchReport) -> str:
    """Per-cell throughput deltas of ``current`` over ``baseline``.

    Cells are matched by (workload, variant).  A digest mismatch between
    matched cells run at the same ``num_uops`` means the *timing model*
    changed between the two reports, which a pure perf PR must not do —
    those rows are flagged (and fail :func:`comparison_failures`).
    """
    lines = [
        f"{'workload':12s} {'variant':16s} {'base uops/s':>12s} "
        f"{'now uops/s':>12s} {'speedup':>8s}"
    ]
    speedups: List[float] = []
    for delta in compare_cells(baseline, current):
        if delta.speedup is None or delta.baseline_uops_per_second is None:
            lines.append(
                f"{delta.workload:12s} {delta.variant:16s} {'-':>12s} "
                f"{delta.current_uops_per_second:12.0f} {'new':>8s}"
            )
            continue
        speedups.append(delta.speedup)
        flag = (
            "  !! stats digest diverged (timing changed)"
            if delta.digest_diverged
            else ""
        )
        lines.append(
            f"{delta.workload:12s} {delta.variant:16s} "
            f"{delta.baseline_uops_per_second:12.0f} "
            f"{delta.current_uops_per_second:12.0f} {delta.speedup:7.2f}x{flag}"
        )
    if speedups:
        geomean = 1.0
        for ratio in speedups:
            geomean *= ratio
        geomean **= 1.0 / len(speedups)
        total = (
            current.total_uops_per_second / baseline.total_uops_per_second
            if baseline.total_uops_per_second
            else 0.0
        )
        lines.append(f"geomean speedup: {geomean:.2f}x   aggregate: {total:.2f}x")
    return "\n".join(lines)


__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BenchCell",
    "BenchReport",
    "CellDelta",
    "compare_cells",
    "comparison_failures",
    "DEFAULT_BENCH_UOPS",
    "DEFAULT_BENCH_VARIANTS",
    "DEFAULT_BENCH_WORKLOADS",
    "QUICK_BENCH_UOPS",
    "QUICK_BENCH_VARIANTS",
    "QUICK_BENCH_WORKLOADS",
    "compare_reports",
    "format_report",
    "load_report",
    "next_bench_path",
    "run_bench",
    "run_sharded_bench",
    "SHARD_BENCH_UOPS",
    "SHARD_BENCH_VARIANT",
    "SHARD_BENCH_WORKLOAD",
    "write_report",
]
