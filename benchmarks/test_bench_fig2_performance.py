"""Figure 2 — performance of RA, RA-buffer, PRE and PRE+EMQ normalised to OoO.

Paper (Section 5.1): RA +14.5%, RA-buffer +14.4%, PRE +35.5%, PRE+EMQ +28.6%
on average over the memory-intensive SPEC CPU2006 subset.  The harness
regenerates the same rows (per benchmark plus the suite average) on the
surrogate suite.  A paper-vs-measured table at a converged trace length is
an open item in ROADMAP.md ("Paper table at a converged trace length").
"""

from repro.analysis.report import format_performance_figure
from repro.core import VARIANTS
from repro.simulation.experiment import run_comparison
from repro.workloads.spec_surrogates import build_surrogate

from bench_common import FIGURE_BENCHMARKS, FIGURE_TRACE_UOPS


def test_bench_figure2_performance_normalized_to_ooo(benchmark, figure_comparison):
    """Regenerate Figure 2 and record the headline speedups."""

    def run_single_benchmark():
        trace = build_surrogate(FIGURE_BENCHMARKS[2], num_uops=FIGURE_TRACE_UOPS // 2)
        return run_comparison([trace], variants=("ooo", "pre"))

    benchmark.pedantic(run_single_benchmark, rounds=1, iterations=1)

    comparison = figure_comparison
    print()
    print(format_performance_figure(comparison))
    for variant in VARIANTS:
        if variant == "ooo":
            continue
        benchmark.extra_info[f"mean_speedup_pct_{variant}"] = round(
            comparison.mean_speedup_percent(variant), 2
        )

    # Shape checks mirroring the paper's conclusions: every runahead variant
    # helps on average, and PRE outperforms traditional runahead.
    assert comparison.mean_speedup_percent("pre") > 0
    assert comparison.mean_speedup_percent("pre_emq") > 0
    assert comparison.mean_speedup_percent("pre") > comparison.mean_speedup_percent("runahead")


def test_bench_figure2_per_benchmark_rows(figure_comparison):
    """Every benchmark row of Figure 2 is available and PRE never loses badly."""
    table = figure_comparison.performance_table()
    for name in FIGURE_BENCHMARKS:
        assert name in table
        assert table[name]["PRE"] > 0.9
