"""Experiment runner: compare runahead variants across a workload suite.

``run_comparison`` simulates every (benchmark, variant) pair and returns a
:class:`ComparisonResult` that can answer the questions the paper's evaluation
asks: per-benchmark and mean performance normalised to the baseline core
(Figure 2), per-benchmark and mean energy savings (Figure 3), runahead
invocation ratios (Section 5.1), interval-length statistics (Section 2.4) and
free-resource statistics (Section 3.4).

Since the engine refactor, ``run_comparison`` is a thin wrapper over
:class:`repro.simulation.engine.ExperimentEngine`: pass ``workers`` to fan the
(benchmark, variant) grid out across processes and ``cache_dir`` to reuse
results across sessions.  Both paths produce identical tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.core import VARIANT_LABELS, VARIANTS
from repro.serde import JSONSerializable
from repro.simulation.metrics import (
    arithmetic_mean,
    energy_savings_percent,
    geometric_mean,
    invocation_ratio,
    normalized_performance,
)
from repro.simulation.simulator import SimulationResult
from repro.uarch.config import CoreConfig
from repro.memory.hierarchy import HierarchyConfig
from repro.workloads.trace import Trace


@dataclass
class BenchmarkResult(JSONSerializable):
    """All variant results for one benchmark."""

    benchmark: str
    results: Dict[str, SimulationResult]

    @property
    def baseline(self) -> SimulationResult:
        """The out-of-order baseline run."""
        return self.results["ooo"]

    def normalized_performance(self, variant: str) -> float:
        """Performance of ``variant`` normalised to the baseline (Figure 2)."""
        return normalized_performance(self.results[variant].stats, self.baseline.stats)

    def speedup_percent(self, variant: str) -> float:
        """Speedup of ``variant`` over the baseline, in percent."""
        return (self.normalized_performance(variant) - 1.0) * 100.0

    def energy_savings_percent(self, variant: str) -> float:
        """Energy saving of ``variant`` relative to the baseline, in percent (Figure 3)."""
        return energy_savings_percent(
            self.results[variant].energy.total_nj, self.baseline.energy.total_nj
        )

    def invocation_ratio(self, variant: str, reference: str = "runahead") -> float:
        """Runahead invocation count of ``variant`` relative to ``reference``."""
        return invocation_ratio(self.results[variant].stats, self.results[reference].stats)


@dataclass
class ComparisonResult(JSONSerializable):
    """Results of a full suite x variants comparison."""

    benchmarks: List[BenchmarkResult]
    variants: Sequence[str]

    def __post_init__(self) -> None:
        # name -> position in ``benchmarks``; looking up the position (rather
        # than the object) keeps lookups correct when a list slot is replaced
        # in place, and the validity check below catches renames/reorders.
        self._name_index: Dict[str, int] = {}

    def _rebuild_index(self) -> Dict[str, int]:
        self._name_index = {
            result.benchmark: position
            for position, result in enumerate(self.benchmarks)
        }
        return self._name_index

    def benchmark(self, name: str) -> BenchmarkResult:
        """Result for one benchmark by name (O(1) via a name index)."""
        index = self._name_index
        if len(index) != len(self.benchmarks):
            index = self._rebuild_index()
        position = index.get(name)
        if position is None or self.benchmarks[position].benchmark != name:
            # The list was mutated (appended, renamed, reordered); rebuild
            # once before concluding the name is unknown.
            position = self._rebuild_index().get(name)
            if position is None:
                raise KeyError(f"no benchmark named {name!r}")
        return self.benchmarks[position]

    def benchmark_names(self) -> List[str]:
        """Names of all benchmarks in the comparison."""
        return [result.benchmark for result in self.benchmarks]

    # ------------------------------------------------------------ aggregates

    def mean_normalized_performance(self, variant: str, geometric: bool = False) -> float:
        """Suite-average normalised performance of ``variant`` (Figure 2's AVG bar)."""
        values = [result.normalized_performance(variant) for result in self.benchmarks]
        return geometric_mean(values) if geometric else arithmetic_mean(values)

    def mean_speedup_percent(self, variant: str, geometric: bool = False) -> float:
        """Suite-average speedup of ``variant`` in percent."""
        return (self.mean_normalized_performance(variant, geometric=geometric) - 1.0) * 100.0

    def mean_energy_savings_percent(self, variant: str) -> float:
        """Suite-average energy saving of ``variant`` in percent (Figure 3's AVG bar)."""
        values = [result.energy_savings_percent(variant) for result in self.benchmarks]
        return arithmetic_mean(values)

    def mean_invocation_ratio(self, variant: str, reference: str = "runahead") -> float:
        """Suite-average runahead invocation ratio (Section 5.1 statistic).

        Raises
        ------
        ValueError
            If every per-benchmark ratio is degenerate (0 or infinite), e.g.
            because neither variant ever entered runahead mode.
        """
        values = []
        for result in self.benchmarks:
            ratio = result.invocation_ratio(variant, reference)
            if ratio not in (0.0, float("inf")):
                values.append(ratio)
        if not values:
            raise ValueError(
                f"no usable invocation ratios for {variant!r} relative to "
                f"{reference!r}: every per-benchmark ratio was 0 or infinite"
            )
        return arithmetic_mean(values)

    # --------------------------------------------------------------- tables

    def performance_table(self) -> Dict[str, Dict[str, float]]:
        """Figure 2 as a nested dict: benchmark -> variant label -> normalised performance."""
        table: Dict[str, Dict[str, float]] = {}
        for result in self.benchmarks:
            table[result.benchmark] = {
                VARIANT_LABELS[variant]: result.normalized_performance(variant)
                for variant in self.variants
                if variant != "ooo"
            }
        table["average"] = {
            VARIANT_LABELS[variant]: self.mean_normalized_performance(variant)
            for variant in self.variants
            if variant != "ooo"
        }
        return table

    def energy_table(self) -> Dict[str, Dict[str, float]]:
        """Figure 3 as a nested dict: benchmark -> variant label -> energy saving (percent)."""
        table: Dict[str, Dict[str, float]] = {}
        for result in self.benchmarks:
            table[result.benchmark] = {
                VARIANT_LABELS[variant]: result.energy_savings_percent(variant)
                for variant in self.variants
                if variant != "ooo"
            }
        table["average"] = {
            VARIANT_LABELS[variant]: self.mean_energy_savings_percent(variant)
            for variant in self.variants
            if variant != "ooo"
        }
        return table


def run_comparison(
    traces: Iterable[Trace],
    variants: Sequence[str] = VARIANTS,
    config: Optional[CoreConfig] = None,
    hierarchy_config: Optional[HierarchyConfig] = None,
    max_cycles: Optional[int] = None,
    workers: int = 1,
    cache_dir: Optional[str] = None,
    probes: Sequence[str] = (),
) -> ComparisonResult:
    """Simulate every trace on every variant and collect the results.

    The baseline variant ``"ooo"`` is always included (it is needed for
    normalisation) even if absent from ``variants``.  With ``workers > 1`` the
    (trace, variant) grid runs across that many processes; with ``cache_dir``
    set, finished cells are reused from (and written to) the on-disk result
    cache.  Results are identical regardless of ``workers``.  ``probes``
    (registry names) attach instrumentation to every cell; reports appear in
    each result's ``probe_reports``.
    """
    from repro.simulation.engine import (
        ExperimentEngine,
        JobSpec,
        assemble_comparison,
        resolve_variants,
    )

    engine = ExperimentEngine(
        workers=workers,
        cache_dir=cache_dir,
        config=config,
        hierarchy_config=hierarchy_config,
    )
    traces = list(traces)
    variant_list = resolve_variants(variants)
    jobs = [
        JobSpec(trace=trace, variant=variant, max_cycles=max_cycles, probes=list(probes))
        for trace in traces
        for variant in variant_list
    ]
    return assemble_comparison(
        [trace.name for trace in traces], variant_list, engine.run_jobs(jobs)
    )
