"""Experiment engine: sweeps, caching, parallel/serial equivalence, CLI."""

import json

import pytest

from repro.registry import WORKLOAD_REGISTRY, register_workload
from repro.simulation.engine import (
    ExperimentEngine,
    JobSpec,
    ResultCache,
    SweepResult,
    SweepSpec,
)
from repro.simulation.experiment import ComparisonResult, run_comparison
from repro.workloads.generators import compute_kernel
from repro.workloads.spec_surrogates import build_surrogate

SMALL_SUITE = ("milc", "mcf")
SMALL_VARIANTS = ("ooo", "runahead", "pre")
SMALL_UOPS = 800


@pytest.fixture(scope="module")
def serial_sweep() -> SweepResult:
    engine = ExperimentEngine(workers=1)
    return engine.run_sweep(
        SweepSpec(workloads=list(SMALL_SUITE), variants=list(SMALL_VARIANTS),
                  num_uops=SMALL_UOPS)
    )


class TestSweepSpec:
    def test_baseline_always_included(self):
        spec = SweepSpec(workloads=["milc"], variants=["pre"])
        assert spec.resolved_variants()[0] == "ooo"

    def test_unknown_variant_rejected_early(self):
        spec = SweepSpec(workloads=["milc"], variants=["warp-drive"])
        with pytest.raises(KeyError, match="unknown variant"):
            spec.resolved_variants()

    def test_unknown_workload_rejected_early(self):
        spec = SweepSpec(workloads=["not-a-benchmark"])
        with pytest.raises(KeyError, match="unknown workload"):
            spec.resolved_workloads()

    def test_spec_roundtrip(self):
        spec = SweepSpec(workloads=["milc"], variants=["pre"], num_uops=500,
                         configs=[{"rob_size": 128}])
        assert SweepSpec.from_dict(spec.to_dict()) == spec


class TestEngineExecution:
    def test_engine_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            ExperimentEngine(workers=0)

    def test_sweep_produces_full_grid(self, serial_sweep):
        comparison = serial_sweep.comparison
        assert comparison.benchmark_names() == list(SMALL_SUITE)
        for bench in comparison.benchmarks:
            assert set(bench.results) == set(SMALL_VARIANTS)

    def test_parallel_results_bit_identical_to_serial(self, serial_sweep):
        engine = ExperimentEngine(workers=2)
        parallel = engine.run_sweep(
            SweepSpec(workloads=list(SMALL_SUITE), variants=list(SMALL_VARIANTS),
                      num_uops=SMALL_UOPS)
        )
        assert parallel.to_dict() == serial_sweep.to_dict()
        assert (parallel.comparison.performance_table()
                == serial_sweep.comparison.performance_table())
        assert (parallel.comparison.energy_table()
                == serial_sweep.comparison.energy_table())

    def test_run_comparison_matches_engine(self, serial_sweep):
        traces = [build_surrogate(name, num_uops=SMALL_UOPS) for name in SMALL_SUITE]
        legacy = run_comparison(traces, variants=SMALL_VARIANTS)
        assert legacy.to_dict() == serial_sweep.comparison.to_dict()

    def test_run_comparison_parallel_matches_serial(self):
        traces = [build_surrogate(name, num_uops=SMALL_UOPS) for name in SMALL_SUITE]
        serial = run_comparison(traces, variants=SMALL_VARIANTS)
        parallel = run_comparison(traces, variants=SMALL_VARIANTS, workers=2)
        assert serial.to_dict() == parallel.to_dict()

    def test_config_override_cells(self):
        engine = ExperimentEngine(workers=1)
        sweep = engine.run_sweep(
            SweepSpec(workloads=["milc"], variants=["pre"], num_uops=SMALL_UOPS,
                      configs=[{}, {"rob_size": 64}])
        )
        assert len(sweep.cells) == 2
        assert sweep.cells[0].overrides == {}
        assert sweep.cells[1].overrides == {"rob_size": 64}
        default_cfg = sweep.cells[0].comparison.benchmark("milc").results["pre"].config
        small_cfg = sweep.cells[1].comparison.benchmark("milc").results["pre"].config
        assert default_cfg.rob_size == 192
        assert small_cfg.rob_size == 64
        with pytest.raises(ValueError, match="configuration cells"):
            sweep.comparison  # ambiguous with two cells

    def test_custom_workload_swept_by_name(self):
        @register_workload("test_engine_kernel", description="test only")
        def _build(num_uops=400):
            trace = compute_kernel(num_uops=num_uops)
            trace.name = "test_engine_kernel"
            return trace

        try:
            engine = ExperimentEngine(workers=1)
            comparison = engine.run_sweep(
                SweepSpec(
                    workloads=["test_engine_kernel"],
                    variants=["ooo", "pre"],
                    num_uops=300,
                )
            ).comparison
            assert comparison.benchmark("test_engine_kernel").baseline.stats.cycles > 0
        finally:
            WORKLOAD_REGISTRY.unregister("test_engine_kernel")


class TestResultCache:
    def test_cache_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("deadbeef") is None
        cache.put("deadbeef", {"value": 1})
        assert cache.get("deadbeef") == {"value": 1}
        assert cache.misses == 1
        assert cache.hits == 1
        assert len(cache) == 1

    def test_corrupt_entry_degrades_to_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.path_for("bad").write_text("{not json", encoding="utf-8")
        assert cache.get("bad") is None

    def test_second_sweep_fully_cached(self, tmp_path, serial_sweep):
        spec = SweepSpec(workloads=list(SMALL_SUITE), variants=list(SMALL_VARIANTS),
                         num_uops=SMALL_UOPS)
        engine = ExperimentEngine(workers=1, cache_dir=tmp_path)
        first = engine.run_sweep(spec)
        stats = engine.last_run_stats
        assert stats.simulated == stats.total_jobs == 6
        assert stats.cache_hits == 0

        second = engine.run_sweep(spec)
        stats = engine.last_run_stats
        assert stats.simulated == 0  # zero re-simulation
        assert stats.cache_hits == stats.total_jobs == 6
        assert second.to_dict() == first.to_dict() == serial_sweep.to_dict()

    def test_cache_key_sensitive_to_inputs(self, tmp_path):
        engine = ExperimentEngine(workers=1, cache_dir=tmp_path)
        spec = SweepSpec(workloads=["milc"], variants=["ooo"], num_uops=300)
        engine.run_sweep(spec)
        # Different trace length => different cells => nothing reused.
        engine.run_sweep(SweepSpec(workloads=["milc"], variants=["ooo"], num_uops=301))
        assert engine.last_run_stats.cache_hits == 0
        # Different config override => different cells => nothing reused.
        engine.run_sweep(
            SweepSpec(workloads=["milc"], variants=["ooo"], num_uops=300,
                      configs=[{"rob_size": 64}])
        )
        assert engine.last_run_stats.cache_hits == 0

    def test_trace_jobs_cached_by_content(self, tmp_path):
        trace = build_surrogate("milc", num_uops=300)
        engine = ExperimentEngine(workers=1, cache_dir=tmp_path)
        engine.run_jobs([JobSpec(trace=trace, variant="ooo")])
        assert engine.last_run_stats.simulated == 1
        engine.run_jobs(
            [JobSpec(trace=build_surrogate("milc", num_uops=300), variant="ooo")]
        )
        assert engine.last_run_stats.cache_hits == 1
        assert engine.last_run_stats.simulated == 0


class TestSweepResultSerialization:
    def test_sweep_result_roundtrip(self, serial_sweep):
        restored = SweepResult.from_dict(
            json.loads(json.dumps(serial_sweep.to_dict()))
        )
        assert restored.to_dict() == serial_sweep.to_dict()
        assert isinstance(restored.comparison, ComparisonResult)
        table = restored.comparison.performance_table()
        assert table == serial_sweep.comparison.performance_table()


class TestCLI:
    def test_list_command(self, capsys):
        from repro.__main__ import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "pre_emq" in out
        assert "milc" in out

    def test_sweep_report_roundtrip(self, tmp_path, capsys):
        from repro.__main__ import main

        output = tmp_path / "sweep.json"
        code = main([
            "sweep",
            "--benchmarks", "milc",
            "--variants", "pre",
            "--uops", "300",
            "--cache-dir", str(tmp_path / "cache"),
            "--output", str(output),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out
        assert "Figure 3" in out
        assert output.exists()

        assert main(["report", str(output), "--figure", "2"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out
        assert "milc" in out

    def test_sweep_with_config_override(self, capsys):
        from repro.__main__ import main

        code = main([
            "sweep",
            "--benchmarks", "milc",
            "--variants", "pre",
            "--uops", "300",
            "--set", "rob_size=64",
            "--figure", "summary",
        ])
        assert code == 0
        assert "speedup" in capsys.readouterr().out
