"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's artefacts (a table, a figure,
or a quoted statistic).  The workload suite is scaled down to a few thousand
micro-ops per benchmark so the whole harness runs in minutes on a laptop.  At
that length runs are in the cold-cache regime, where suite means still move
with trace length.

The figure-level comparison runs through the experiment engine.  Set
``REPRO_BENCH_WORKERS`` to parallelise it and ``REPRO_BENCH_CACHE`` to a
directory to reuse simulation results across harness invocations.
"""

from __future__ import annotations

import os

import pytest

from bench_common import FIGURE_BENCHMARKS, FIGURE_TRACE_UOPS
from repro.simulation.engine import ExperimentEngine, SweepSpec
from repro.simulation.experiment import ComparisonResult


@pytest.fixture(scope="session")
def figure_comparison() -> ComparisonResult:
    """Run the full five-variant comparison once and share it across benchmarks."""
    engine = ExperimentEngine(
        workers=int(os.environ.get("REPRO_BENCH_WORKERS", "1")),
        cache_dir=os.environ.get("REPRO_BENCH_CACHE") or None,
    )
    sweep = engine.run_sweep(
        SweepSpec(workloads=list(FIGURE_BENCHMARKS), num_uops=FIGURE_TRACE_UOPS)
    )
    return sweep.comparison
