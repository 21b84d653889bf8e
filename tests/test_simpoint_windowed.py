"""SimPoint sampling determinism and windowed execution with weighted stats."""

import random

import pytest

from repro.simulation.shard import ShardedRunResult, plan_simpoints, run_sharded
from repro.simulation.simulator import SimulationRequest, run_simulation
from repro.workloads.generators import multi_slice_kernel, strided_stream
from repro.workloads.simpoint import SimPointSampler
from repro.workloads.source import GeneratorSource


def profile_trace():
    return multi_slice_kernel(num_uops=6_000, num_slices=4, work_per_iteration=16)


class TestSamplerDeterminism:
    """Satellite: clustering is deterministic regardless of caller RNG state."""

    def test_global_random_state_does_not_affect_selection(self):
        trace = profile_trace()
        sampler = SimPointSampler(interval_size=500, max_clusters=3, seed=1)
        random.seed(12345)
        first = sampler.select_source(trace)
        random.seed(99999)
        random.random()  # churn the global generator between calls
        assert sampler.select_source(trace) == first

    def test_global_random_state_is_not_consumed(self):
        trace = profile_trace()
        random.seed(777)
        expected_next = random.random()
        random.seed(777)
        SimPointSampler(interval_size=500, max_clusters=3, seed=1).select_source(trace)
        assert random.random() == expected_next

    def test_every_seed_is_individually_deterministic(self):
        trace = profile_trace()
        for seed in range(4):
            sampler = SimPointSampler(interval_size=500, max_clusters=3, seed=seed)
            assert sampler.select_source(trace) == sampler.select_source(trace)


class TestSelectSource:
    def test_streaming_selection_matches_materialized(self):
        trace = profile_trace()
        sampler = SimPointSampler(interval_size=500, max_clusters=3, seed=1)
        source = GeneratorSource(
            multi_slice_kernel.stream,
            {"num_uops": 6_000, "num_slices": 4, "work_per_iteration": 16},
        )
        streamed = sampler.select_source(source)
        assert streamed == sampler.select_source(trace)
        assert streamed[1] == len(trace)

    def test_weights_sum_to_one(self):
        intervals, _ = SimPointSampler(interval_size=500, max_clusters=3).select_source(
            profile_trace()
        )
        assert sum(i.weight for i in intervals) == pytest.approx(1.0)

    def test_empty_stream(self):
        intervals, total = SimPointSampler().select_source(
            GeneratorSource(lambda: iter(()), {})
        )
        assert intervals == []
        assert total == 0


class TestWindowedExecution:
    def test_simpoint_run_executes_fewer_uops_with_whole_trace_stats(self):
        trace = profile_trace()
        plan = plan_simpoints(trace, interval_size=1_000, max_clusters=2)
        result = run_sharded(trace, plan, "ooo")
        assert isinstance(result, ShardedRunResult)
        assert result.total_uops == len(trace)
        # Strictly fewer micro-ops executed than the full run...
        assert 0 < result.simulated_uops < result.total_uops
        assert sum(e.result.stats.committed_uops for e in result.shards) == (
            result.simulated_uops
        )
        # ...while the stitched stats cover the whole trace.
        assert result.stitched_stats.committed_uops == result.total_uops
        assert result.stitched_stats.cycles > 0
        assert result.stitched_ipc > 0

    def test_stitched_ipc_tracks_full_run(self):
        trace = strided_stream(num_uops=12_000)
        plan = plan_simpoints(trace, interval_size=2_000, max_clusters=3)
        windowed = run_sharded(trace, plan, "ooo")
        full = run_simulation(trace, SimulationRequest(variant="ooo"))
        # The stream is highly regular, so the weighted estimate must land
        # near the full-run IPC (generous band: no warmup prefixes).
        assert windowed.stitched_ipc == pytest.approx(full.ipc, rel=0.25)

    def test_probe_names_give_fresh_per_interval_reports(self):
        trace = profile_trace()
        plan = plan_simpoints(trace, interval_size=1_000, max_clusters=2)
        result = run_sharded(trace, plan, "ooo", probes=["stall_breakdown"])
        assert len(result.shards) >= 2
        for entry in result.shards:
            report = entry.result.probe_reports["stall_breakdown"]
            # Fresh probe per window: each report accounts exactly its own
            # interval's cycles, never accumulated earlier windows.
            assert sum(report["cycles"].values()) == entry.result.stats.cycles

    def test_probe_instances_rejected_to_prevent_accumulation(self):
        from repro.uarch.probes import StallBreakdownProbe

        trace = profile_trace()
        with pytest.raises(TypeError, match="registry names"):
            run_sharded(
                trace, plan_simpoints(trace), "ooo", probes=[StallBreakdownProbe()]
            )

    def test_simpoint_result_serde_round_trip(self):
        trace = profile_trace()
        plan = plan_simpoints(trace, interval_size=1_000, max_clusters=2)
        result = run_sharded(trace, plan, "ooo")
        restored = ShardedRunResult.from_dict(result.to_dict())
        assert restored.to_dict() == result.to_dict()
        assert restored.stitched_ipc == result.stitched_ipc


class TestLargeStreamAcceptance:
    """Acceptance: SimPoint-windowed run of a 10x-seed-size streaming trace."""

    def test_windowed_run_over_large_generator_source(self):
        num_uops = 200_000  # >= 10x the largest (20k) seed workload
        source = GeneratorSource(
            strided_stream.stream, {"num_uops": num_uops}, name="big_stream"
        )
        plan = plan_simpoints(source, interval_size=10_000, max_clusters=3)
        result = run_sharded(source, plan, "pre")
        assert result.total_uops >= num_uops
        assert result.stitched_stats.committed_uops == result.total_uops
        assert result.stitched_ipc > 0
        # Windowed execution samples a small fraction of the stream.
        assert result.simulated_uops <= result.total_uops // 2
