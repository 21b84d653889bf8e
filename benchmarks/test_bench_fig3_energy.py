"""Figure 3 — energy savings of RA, RA-buffer, PRE and PRE+EMQ relative to OoO.

Paper (Section 5.2): RA increases energy by 2.7%, RA-buffer is roughly energy
neutral, PRE saves 6.1% and PRE+EMQ saves 7.2% relative to the baseline
out-of-order core (core + DRAM energy).
"""

from bench_common import FIGURE_BENCHMARKS, FIGURE_TRACE_UOPS
from repro.analysis.report import format_energy_figure
from repro.core import VARIANTS
from repro.simulation.simulator import SimulationRequest, run_simulation
from repro.workloads.spec_surrogates import build_surrogate


def test_bench_figure3_energy_savings(benchmark, figure_comparison):
    """Regenerate Figure 3 and record per-variant mean energy savings."""

    def run_energy_evaluation():
        trace = build_surrogate(FIGURE_BENCHMARKS[2], num_uops=FIGURE_TRACE_UOPS // 2)
        return run_simulation(trace, SimulationRequest(variant="pre")).energy.total_nj

    benchmark.pedantic(run_energy_evaluation, rounds=1, iterations=1)

    comparison = figure_comparison
    print()
    print(format_energy_figure(comparison))
    for variant in VARIANTS:
        if variant == "ooo":
            continue
        benchmark.extra_info[f"mean_energy_saving_pct_{variant}"] = round(
            comparison.mean_energy_savings_percent(variant), 2
        )

    # Shape checks mirroring the paper's conclusions: PRE and PRE+EMQ save
    # energy relative to the baseline, and PRE is more energy-efficient than
    # traditional runahead (which re-fetches and re-executes whole windows).
    assert comparison.mean_energy_savings_percent("pre") > comparison.mean_energy_savings_percent(
        "runahead"
    )
    assert comparison.mean_energy_savings_percent("pre") > -1.0


def test_bench_figure3_energy_breakdown_components(figure_comparison):
    """The energy model attributes energy to front-end, core, caches and DRAM."""
    result = figure_comparison.benchmarks[0].results["pre"]
    breakdown = result.energy.breakdown
    assert breakdown.frontend_nj > 0
    assert breakdown.cache_nj > 0
    assert breakdown.dram_dynamic_nj > 0
    assert breakdown.core_static_nj > 0
    assert breakdown.total_nj == result.energy.total_nj
