"""Instrumentation probe API: hooks, built-ins, registry and engine plumbing."""

import pytest

from repro.registry import PROBE_REGISTRY, build_workload
from repro.simulation.engine import ExperimentEngine, SweepSpec, job_cache_key, _job_payload
from repro.simulation.simulator import SimulationRequest, SimulationResult, run_simulation
from repro.uarch.core import OoOCore
from repro.uarch.config import CoreConfig
from repro.uarch.probes import (
    IPCTimelineProbe,
    MemoryProfileProbe,
    Probe,
    ProbeSet,
    build_probe,
)
from repro.core import build_controller
from repro.simulation.metrics import interval_length_histogram
from repro.uarch.stats import INTERVAL_BIN_EDGES
from repro.workloads.generators import strided_stream


class CountingProbe(Probe):
    name = "counting"

    def __init__(self):
        self.attached = 0
        self.cycles = 0
        self.commits = 0
        self.enters = 0
        self.exits = 0
        self.mem_accesses = 0
        self.stalls = 0
        self.finished = 0

    def on_attach(self, core):
        self.attached += 1

    def on_cycle(self, core, cycle):
        self.cycles += 1

    def on_commit(self, core, instr, cycle):
        self.commits += 1

    def on_runahead_enter(self, core, cycle):
        self.enters += 1

    def on_runahead_exit(self, core, cycle):
        self.exits += 1

    def on_mem_access(self, core, instr, result, cycle):
        self.mem_accesses += 1

    def on_full_window_stall(self, core, instr, cycle):
        self.stalls += 1

    def on_finish(self, core, stats):
        self.finished += 1

    def report(self):
        return {"commits": self.commits}


class TestProbeHooks:
    def test_counting_probe_sees_every_semantic_event(self):
        trace = strided_stream(num_uops=2_000)
        probe = CountingProbe()
        core = OoOCore(
            trace,
            controller=build_controller("pre"),
            probes=[probe],
        )
        stats = core.run()
        assert probe.attached == 1
        assert probe.finished == 1
        assert probe.commits == stats.committed_uops
        assert probe.cycles > 0
        assert probe.mem_accesses > 0
        assert probe.stalls == stats.full_window_stalls
        assert probe.enters == stats.runahead_invocations
        assert probe.exits == probe.enters

    def test_probeset_indexes_only_overridden_hooks(self):
        probe = CountingProbe()
        passive = Probe()
        probes = ProbeSet([probe, passive])
        assert probe in probes.commit
        assert passive not in probes.commit
        assert len(probes) == 2

    def test_bare_and_default_cores_give_identical_stats(self):
        stats_default = OoOCore(strided_stream(num_uops=2_000)).run()
        stats_bare = OoOCore(strided_stream(num_uops=2_000), probes=[]).run()
        probed = OoOCore(
            strided_stream(num_uops=2_000),
            probes=[build_probe(name) for name in PROBE_REGISTRY.names()],
        )
        stats_probed = probed.run()
        # The core's summaries are always on; probes only observe.
        assert stats_default.full_window_stalls > 0
        assert stats_default.stall_free_iq_sum > 0.0
        assert stats_bare == stats_default
        assert stats_probed == stats_default


class TestBuiltinProbes:
    def run_with(self, probe_names, variant="pre"):
        return run_simulation(
            strided_stream(num_uops=2_000),
            SimulationRequest(variant=variant, probes=list(probe_names)),
        )

    def test_registry_lists_builtins(self):
        names = PROBE_REGISTRY.names()
        for expected in ("ipc_timeline", "stall_breakdown", "runahead_log", "mem_profile"):
            assert expected in names

    def test_build_probe_accepts_names_and_instances(self):
        assert isinstance(build_probe("ipc_timeline"), IPCTimelineProbe)
        instance = MemoryProfileProbe()
        assert build_probe(instance) is instance
        with pytest.raises(KeyError):
            build_probe("no_such_probe")

    def test_ipc_timeline_reports_monotonic_samples(self):
        result = self.run_with(["ipc_timeline"])
        report = result.probe_reports["ipc_timeline"]
        samples = report["samples"]
        assert samples, "timeline must contain samples"
        cycles = [cycle for cycle, _ in samples]
        committed = [count for _, count in samples]
        assert cycles == sorted(cycles)
        assert committed == sorted(committed)
        assert samples[-1][0] == result.stats.cycles
        assert samples[-1][1] == result.stats.committed_uops

    def test_stall_breakdown_accounts_every_cycle(self):
        result = self.run_with(["stall_breakdown"])
        report = result.probe_reports["stall_breakdown"]
        assert sum(report["cycles"].values()) == result.stats.cycles
        assert abs(sum(report["fractions"].values()) - 1.0) < 1e-9
        assert report["cycles"]["runahead"] == result.stats.runahead_cycles

    def test_runahead_log_matches_interval_stats(self):
        for variant in ("runahead", "runahead_buffer", "pre", "pre_emq"):
            result = self.run_with(["runahead_log"], variant=variant)
            stats = result.stats
            log = result.probe_reports["runahead_log"]
            assert len(log) == stats.runahead_invocations > 0, variant
            closed = [entry for entry in log if entry["exit"] >= 0]
            for entry in closed:
                assert entry["length"] == entry["exit"] - entry["entry"]
                assert entry["prefetches"] >= 0
            assert sum(e["prefetches"] for e in closed) <= stats.runahead_prefetches
            # Binned with the core's edges, the log reproduces its summaries.
            bins = [0] * (len(INTERVAL_BIN_EDGES) + 1)
            for entry in closed:
                bins[sum(entry["length"] >= edge for edge in INTERVAL_BIN_EDGES)] += 1
            assert bins == list(interval_length_histogram(stats).values()), variant
            assert sum(e["length"] for e in closed) == stats.runahead_interval_cycles, variant

    def test_mem_profile_counts_match_stats(self):
        result = self.run_with(["mem_profile"], variant="ooo")
        report = result.probe_reports["mem_profile"]
        assert report["total"] == sum(report["levels"].values())
        assert report["long_latency"] == result.stats.long_latency_loads
        assert report["total"] > 0

    @pytest.mark.parametrize(
        "workload, variant", [("bwaves", "runahead"), ("mcf", "pre"), ("milc", "pre_emq")]
    )
    def test_warmed_run_reports_only_the_measured_window(self, workload, variant):
        result = run_simulation(
            build_workload(workload, num_uops=3_000),
            SimulationRequest(
                variant=variant, warmup_uops=1_500, probes=list(PROBE_REGISTRY.names())
            ),
        )
        stats = result.stats
        reports = result.probe_reports
        log = reports["runahead_log"]
        assert len(log) == stats.runahead_invocations > 0
        closed = [entry for entry in log if entry["exit"] >= 0]
        assert sum(entry["length"] for entry in closed) == stats.runahead_interval_cycles
        cycles = reports["stall_breakdown"]["cycles"]
        assert cycles["runahead"] == stats.runahead_cycles
        # stats.cycles includes the boundary step's cycle, whose per-cycle
        # counts were zeroed with the rest of the warmup's.
        assert sum(cycles.values()) == stats.cycles - 1
        samples = reports["ipc_timeline"]["samples"]
        assert samples[0][0] == 0
        assert samples[-1] == [stats.cycles, stats.committed_uops]
        assert all(cycle <= stats.cycles for cycle, _ in samples)
        profile = reports["mem_profile"]
        assert profile["total"] == sum(profile["levels"].values())
        assert profile["long_latency"] == stats.long_latency_loads

    def test_no_probes_means_empty_reports(self):
        result = run_simulation(strided_stream(num_uops=800), SimulationRequest(variant="ooo"))
        assert result.probe_reports == {}


class TestProbeSerde:
    def test_probe_reports_survive_json_round_trip(self):
        result = run_simulation(
            strided_stream(num_uops=1_000),
            SimulationRequest(variant="pre", probes=["ipc_timeline", "mem_profile"]),
        )
        restored = SimulationResult.from_dict(result.to_dict())
        assert restored.probe_reports == result.probe_reports
        assert restored.to_dict() == result.to_dict()


class TestEngineProbePlumbing:
    def test_sweep_attaches_probes_to_every_cell(self, tmp_path):
        engine = ExperimentEngine(cache_dir=tmp_path / "cache")
        spec = SweepSpec(
            workloads=["milc"],
            variants=["pre"],
            num_uops=600,
            probes=["stall_breakdown"],
        )
        sweep = engine.run_sweep(spec)
        for bench in sweep.comparison.benchmarks:
            for result in bench.results.values():
                assert "stall_breakdown" in result.probe_reports
        # Cached re-run serves identical cells, probe reports included.
        again = ExperimentEngine(cache_dir=tmp_path / "cache").run_sweep(spec)
        assert again.to_dict() == sweep.to_dict()

    def test_unknown_probe_rejected_before_running(self):
        engine = ExperimentEngine()
        with pytest.raises(KeyError):
            engine.run_sweep(
                SweepSpec(workloads=["milc"], variants=["pre"], num_uops=400,
                          probes=["bogus"])
            )

    def test_cache_key_distinguishes_probe_sets(self):
        config = CoreConfig()
        source = {"kind": "workload", "name": "milc", "num_uops": 500, "token": "t"}
        without = _job_payload("milc", "pre", source, None, config, None, None)
        with_probe = _job_payload(
            "milc", "pre", source, None, config, None, None, probes=["ipc_timeline"]
        )
        assert job_cache_key(without) != job_cache_key(with_probe)
