"""JSON round-trip equality for every persisted dataclass."""

import json

import pytest

from repro.energy.mcpat import EnergyBreakdown
from repro.energy.model import EnergyReport
from repro.memory.cache import CacheConfig
from repro.memory.dram import DRAMConfig
from repro.memory.hierarchy import HierarchyConfig
from repro.simulation.experiment import BenchmarkResult, ComparisonResult, run_comparison
from repro.simulation.simulator import SimulationRequest, SimulationResult, run_simulation
from repro.uarch.config import CoreConfig
from repro.uarch.stats import CoreStats, EventCounts
from repro.workloads.spec_surrogates import build_surrogate


@pytest.fixture(scope="module")
def pre_result() -> SimulationResult:
    trace = build_surrogate("milc", num_uops=1_000)
    return run_simulation(trace, SimulationRequest(variant="pre"))


@pytest.fixture(scope="module")
def comparison() -> ComparisonResult:
    traces = [build_surrogate(name, num_uops=800) for name in ("milc", "mcf")]
    return run_comparison(traces, variants=("ooo", "runahead", "pre"))


def roundtrip(obj):
    """to_dict -> JSON text -> from_dict, mirroring the on-disk cache path."""
    data = json.loads(json.dumps(obj.to_dict()))
    return type(obj).from_dict(data)


class TestConfigRoundTrips:
    def test_core_config(self):
        config = CoreConfig(rob_size=256, frequency_ghz=3.2)
        assert roundtrip(config) == config

    def test_core_config_json_string(self):
        config = CoreConfig()
        assert CoreConfig.from_json(config.to_json()) == config

    def test_cache_config(self):
        config = CacheConfig("L1D", 32 * 1024, 8, latency=4)
        assert roundtrip(config) == config

    def test_dram_config(self):
        config = DRAMConfig(num_banks=16)
        assert roundtrip(config) == config

    def test_hierarchy_config(self):
        config = HierarchyConfig(mshr_entries=16, prefetcher="stride")
        restored = roundtrip(config)
        assert restored == config
        assert isinstance(restored.l1d, CacheConfig)
        assert isinstance(restored.dram, DRAMConfig)


class TestStatsRoundTrips:
    def test_event_counts(self):
        events = EventCounts(fetched_uops=10, emq_writes=3)
        assert roundtrip(events) == events

    def test_core_stats_from_real_run(self, pre_result):
        stats = pre_result.stats
        restored = roundtrip(stats)
        assert restored == stats
        assert isinstance(restored.events, EventCounts)
        assert restored.runahead_interval_bins == stats.runahead_interval_bins
        assert all(isinstance(count, int) for count in restored.runahead_interval_bins)
        assert isinstance(restored.stall_free_iq_sum, float)
        assert restored.mean_free_resources() == stats.mean_free_resources()
        assert restored.ipc == stats.ipc

    def test_energy_report_from_real_run(self, pre_result):
        report = pre_result.energy
        restored = roundtrip(report)
        assert restored == report
        assert isinstance(restored.breakdown, EnergyBreakdown)
        assert restored.total_nj == report.total_nj


class TestResultRoundTrips:
    def test_simulation_result(self, pre_result):
        restored = roundtrip(pre_result)
        assert restored == pre_result
        assert restored.label == "PRE"
        assert restored.ipc == pre_result.ipc
        assert restored.total_energy_nj == pre_result.total_energy_nj

    def test_benchmark_result(self, comparison):
        bench = comparison.benchmarks[0]
        restored = roundtrip(bench)
        assert restored == bench
        assert restored.normalized_performance("pre") == bench.normalized_performance("pre")

    def test_comparison_result(self, comparison):
        restored = roundtrip(comparison)
        assert restored == comparison
        assert restored.performance_table() == comparison.performance_table()
        assert restored.energy_table() == comparison.energy_table()
        assert restored.benchmark("milc").benchmark == "milc"

    def test_comparison_private_index_not_serialized(self, comparison):
        comparison.benchmark("milc")  # force the index to exist
        assert "_name_index" not in comparison.to_dict()

    def test_comparison_lookup_sees_in_place_replacement(self, comparison):
        original = comparison.benchmark("milc")
        position = comparison.benchmark_names().index("milc")
        replacement = BenchmarkResult(benchmark="milc", results=dict(original.results))
        comparison.benchmarks[position] = replacement
        try:
            assert comparison.benchmark("milc") is replacement
        finally:
            comparison.benchmarks[position] = original


class TestComparisonLookup:
    def test_benchmark_lookup_unknown_name(self, comparison):
        with pytest.raises(KeyError, match="no benchmark named 'nonesuch'"):
            comparison.benchmark("nonesuch")

    def test_benchmark_lookup_sees_appended_rows(self, comparison):
        extra = BenchmarkResult(
            benchmark="extra", results=dict(comparison.benchmarks[0].results)
        )
        comparison.benchmarks.append(extra)
        try:
            assert comparison.benchmark("extra") is extra
        finally:
            comparison.benchmarks.pop()

    def test_mean_invocation_ratio_all_degenerate(self, comparison):
        # Comparing the baseline (0 invocations) against itself filters out
        # every per-benchmark ratio.
        with pytest.raises(ValueError, match="no usable invocation ratios"):
            comparison.mean_invocation_ratio("ooo", reference="ooo")
