"""Experiment engine: sweeps, caching, parallel/serial equivalence, CLI."""

import gc
import json
import os
import sys
import threading
import weakref
from collections import Counter

import pytest

import repro.simulation.engine as engine_module
from repro.errors import JobCancelled
from repro.registry import WORKLOAD_REGISTRY, register_workload
from repro.simulation.engine import (
    ExperimentEngine,
    JobSpec,
    ResultCache,
    SweepResult,
    SweepSpec,
    execute_cell_payload,
    sweep_jobs,
)
from repro.simulation.experiment import ComparisonResult, run_comparison
from repro.simulation.multicore import CoreAssignment, MultiCoreSpec
from repro.simulation.simulator import SimulationRequest, run_simulation
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


class TestLocalExecutor:
    """``ExperimentEngine.execute``: the pool, its serial fallback, aborts."""

    SPEC = SweepSpec(workloads=["milc", "mcf"], variants=["ooo", "pre"], num_uops=300)

    @staticmethod
    def _execute(engine, payloads):
        delivered = []
        engine.execute(payloads, lambda *result: delivered.append(result))
        return delivered

    def test_pool_start_failure_falls_back_to_identical_results(self, monkeypatch):
        serial_engine = ExperimentEngine(workers=1)
        payloads = serial_engine.expand_job_payloads(
            sweep_jobs(self.SPEC, serial_engine)
        )
        serial = self._execute(serial_engine, payloads)
        assert [offset for offset, _ in serial] == list(range(len(payloads)))

        def no_pool(*args, **kwargs):
            raise OSError("process pools are unavailable here")

        monkeypatch.setattr(engine_module, "ProcessPoolExecutor", no_pool)
        assert self._execute(ExperimentEngine(workers=2), payloads) == serial

    def test_cancellation_from_on_result_propagates_out_of_the_pool(self, monkeypatch):
        pools = []

        class RecordingPool(engine_module.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                pools.append(self)

        monkeypatch.setattr(engine_module, "ProcessPoolExecutor", RecordingPool)
        engine = ExperimentEngine(workers=2)
        payloads = engine.expand_job_payloads(sweep_jobs(self.SPEC, engine))
        delivered = []

        def on_result(offset, produced):
            delivered.append(offset)
            raise JobCancelled()

        with pytest.raises(JobCancelled):
            engine.execute(payloads, on_result)
        assert len(pools) == 1  # the pool ran, and the first result aborted it
        assert delivered == [0]


@pytest.fixture
def counted_workload(tmp_path):
    """Register ``test_counted``, whose every build appends its process id to
    a log; yields the log and weak references to the traces built here."""
    log = tmp_path / "builds.log"
    built = []

    @register_workload("test_counted", description="test only", replace=True)
    def _build(num_uops=400):
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()}\n")
        trace = compute_kernel(num_uops=num_uops)
        built.append(weakref.ref(trace))
        return trace

    yield log, built
    WORKLOAD_REGISTRY.unregister("test_counted")


class TestTraceReuse:
    """A process reuses its previous cell's traces instead of rebuilding them."""

    VARIANTS = ["ooo", "runahead", "runahead_buffer", "pre", "pre_emq"]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("co_runner", [False, True])
    def test_each_process_builds_a_workload_once(self, counted_workload, workers, co_runner):
        log, _ = counted_workload
        if co_runner:
            spec = SweepSpec(
                workloads=["milc"],
                variants=self.VARIANTS,
                num_uops=300,
                multicore=MultiCoreSpec(
                    cores=[CoreAssignment(workload="test_counted", num_uops=200)]
                ),
            )
        else:
            spec = SweepSpec(workloads=["test_counted"], variants=self.VARIANTS, num_uops=300)
        ExperimentEngine(workers=workers).run_sweep(spec)
        per_process = Counter(log.read_text(encoding="utf-8").split())
        assert 1 <= len(per_process) <= workers
        assert set(per_process.values()) == {1}

    def test_a_re_registered_workload_is_rebuilt(self, counted_workload, monkeypatch):
        monkeypatch.setattr(engine_module, "_last_cell_traces", ())
        engine = ExperimentEngine(workers=1)
        [payload] = engine.expand_job_payloads(
            [JobSpec(workload="test_counted", variant="ooo", num_uops=300)]
        )
        first = execute_cell_payload(payload)

        @register_workload("test_counted", description="test only", replace=True)
        def _rebuild(num_uops=400):
            return build_surrogate("mcf", num_uops=num_uops)

        second = execute_cell_payload(payload)
        expected = run_simulation(
            build_surrogate("mcf", num_uops=300), SimulationRequest(variant="ooo")
        ).to_dict()
        assert second == expected != first

    def test_threads_running_cells_at_once_get_their_own_traces(self, monkeypatch):
        # More threads than cores, switching as often as the interpreter
        # allows: a racing thread may rebuild, but never runs another's trace.
        monkeypatch.setattr(engine_module, "_last_cell_traces", ())
        engine = ExperimentEngine(workers=1)
        spec = SweepSpec(
            workloads=["milc", "mcf", "lbm", "libquantum"], variants=["ooo"], num_uops=300
        )
        payloads = engine.expand_job_payloads(sweep_jobs(spec, engine))
        expected = [execute_cell_payload(payload) for payload in payloads]
        results = {index: [] for index in range(len(payloads))}

        def run(index):
            for _ in range(3):
                results[index].append(execute_cell_payload(payloads[index]))

        threads = [threading.Thread(target=run, args=(i,)) for i in results]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for index, result in enumerate(expected):
            assert results[index] == [result] * 3

    def test_serial_loop_lets_its_traces_go(self, counted_workload):
        _, built = counted_workload
        ExperimentEngine(workers=1).run_jobs(
            [JobSpec(workload="test_counted", variant=v, num_uops=300)
             for v in ("ooo", "pre")]
        )
        gc.collect()  # cores and controllers reference each other
        assert len(built) == 1
        assert built[0]() is None


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

    def test_non_positive_max_cycles_is_a_clean_error(self, capsys):
        from repro.__main__ import main

        code = main(["sweep", "--benchmarks", "milc", "--max-cycles", "0"])
        assert code == 2
        assert "max_cycles must be positive" in capsys.readouterr().err
