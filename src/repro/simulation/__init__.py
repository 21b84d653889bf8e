"""Simulation drivers: single runs, variant comparisons, sweeps, and metrics."""

from repro.simulation.simulator import (
    CoreResult,
    SimulationRequest,
    SimulationResult,
    UncoreReport,
    run_simulation,
)
from repro.simulation.multicore import (
    CoreAssignment,
    MultiCoreSimulator,
    MultiCoreSpec,
    run_multicore,
)
from repro.simulation.experiment import (
    BenchmarkResult,
    ComparisonResult,
    run_comparison,
)
from repro.simulation.engine import (
    EngineRunStats,
    ExperimentEngine,
    ResultCache,
    SweepCell,
    SweepResult,
    SweepSpec,
)
from repro.simulation.metrics import (
    arithmetic_mean,
    geometric_mean,
    interval_length_histogram,
    invocation_ratio,
    normalized_performance,
    speedup_percent,
)

__all__ = [
    "CoreAssignment",
    "CoreResult",
    "MultiCoreSimulator",
    "MultiCoreSpec",
    "SimulationRequest",
    "SimulationResult",
    "UncoreReport",
    "run_multicore",
    "run_simulation",
    "BenchmarkResult",
    "ComparisonResult",
    "run_comparison",
    "EngineRunStats",
    "ExperimentEngine",
    "ResultCache",
    "SweepCell",
    "SweepResult",
    "SweepSpec",
    "arithmetic_mean",
    "geometric_mean",
    "interval_length_histogram",
    "invocation_ratio",
    "normalized_performance",
    "speedup_percent",
]
