"""Derived metrics shared by experiments, reports and benchmarks."""

from __future__ import annotations

import math
from typing import Dict, Sequence

from repro.uarch.stats import INTERVAL_BIN_EDGES, CoreStats


def arithmetic_mean(values: Sequence[float]) -> float:
    """Plain average.

    Raises
    ------
    ValueError
        If ``values`` is empty — an empty mean almost always means every
        input was filtered out upstream, which callers should surface rather
        than silently average to zero.
    """
    values = list(values)
    if not values:
        raise ValueError("arithmetic_mean() requires at least one value")
    return sum(values) / len(values)


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean.  All values must be positive.

    Raises
    ------
    ValueError
        If ``values`` is empty or contains a non-positive value.
    """
    values = list(values)
    if not values:
        raise ValueError("geometric_mean() requires at least one value")
    if any(value <= 0 for value in values):
        raise ValueError("geometric mean requires positive values")
    return math.exp(sum(math.log(value) for value in values) / len(values))


def normalized_performance(variant_stats: CoreStats, baseline_stats: CoreStats) -> float:
    """Performance of a variant normalised to the baseline (Figure 2's y-axis).

    Both runs commit the same trace, so the ratio of cycle counts equals the
    ratio of IPCs.
    """
    if variant_stats.cycles == 0:
        return 0.0
    return baseline_stats.cycles / variant_stats.cycles


def speedup_percent(variant_stats: CoreStats, baseline_stats: CoreStats) -> float:
    """Percentage performance improvement over the baseline."""
    return (normalized_performance(variant_stats, baseline_stats) - 1.0) * 100.0


def invocation_ratio(variant_stats: CoreStats, reference_stats: CoreStats) -> float:
    """Ratio of runahead invocations between two variants (Section 5.1 statistic)."""
    if reference_stats.runahead_invocations == 0:
        return float("inf") if variant_stats.runahead_invocations else 0.0
    return variant_stats.runahead_invocations / reference_stats.runahead_invocations


def interval_length_histogram(stats: CoreStats) -> Dict[str, int]:
    """Histogram of closed runahead-interval lengths (Section 2.4 characterisation).

    Returns a mapping from human-readable bin label to interval count: one
    bin per ``INTERVAL_BIN_EDGES`` edge and one final open-ended bin.  Other
    binnings read the per-interval lengths of the ``runahead_log`` probe.
    """
    edges = INTERVAL_BIN_EDGES
    labels = [f"<{edges[0]}"]
    labels += [f"{low}-{high - 1}" for low, high in zip(edges, edges[1:])]
    labels += [f">={edges[-1]}"]
    return dict(zip(labels, stats.runahead_interval_bins))


def energy_savings_percent(variant_total_nj: float, baseline_total_nj: float) -> float:
    """Percentage energy saving relative to the baseline (Figure 3's y-axis)."""
    if baseline_total_nj == 0:
        return 0.0
    return (1.0 - variant_total_nj / baseline_total_nj) * 100.0
