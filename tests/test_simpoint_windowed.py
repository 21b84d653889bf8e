"""SimPoint sampling determinism and windowed execution with weighted stats."""

import random

import pytest

from repro.simulation.simulator import (
    SimPointRunResult,
    SimulationRequest,
    run_simpoints,
    run_simulation,
)
from repro.workloads.generators import multi_slice_kernel, strided_stream
from repro.workloads.simpoint import SimPointSampler, sample_trace
from repro.workloads.source import GeneratorSource


def profile_trace():
    return multi_slice_kernel(num_uops=6_000, num_slices=4, work_per_iteration=16)


class TestSamplerDeterminism:
    """Satellite: clustering is deterministic regardless of caller RNG state."""

    def test_global_random_state_does_not_affect_selection(self):
        trace = profile_trace()
        random.seed(12345)
        first = SimPointSampler(interval_size=500, max_clusters=3, seed=1).select(trace)
        random.seed(99999)
        random.random()  # churn the global generator between calls
        second = SimPointSampler(interval_size=500, max_clusters=3, seed=1).select(trace)
        assert first == second

    def test_global_random_state_is_not_consumed(self):
        trace = profile_trace()
        random.seed(777)
        expected_next = random.random()
        random.seed(777)
        SimPointSampler(interval_size=500, max_clusters=3, seed=1).select(trace)
        assert random.random() == expected_next

    def test_explicit_rng_injection(self):
        trace = profile_trace()
        one = SimPointSampler(
            interval_size=500, max_clusters=3, rng=random.Random(42)
        ).select(trace)
        two = SimPointSampler(
            interval_size=500, max_clusters=3, rng=random.Random(42)
        ).select(trace)
        assert one == two

    def test_every_seed_is_individually_deterministic(self):
        trace = profile_trace()
        for seed in range(4):
            first = SimPointSampler(interval_size=500, max_clusters=3, seed=seed).select(trace)
            again = SimPointSampler(interval_size=500, max_clusters=3, seed=seed).select(trace)
            assert first == again

    def test_sample_trace_still_shrinks(self):
        trace = profile_trace()
        sampled = sample_trace(trace, interval_size=500, max_clusters=2)
        assert 0 < len(sampled) < len(trace)


class TestSelectSource:
    def test_streaming_selection_matches_materialized(self):
        trace = profile_trace()
        sampler = SimPointSampler(interval_size=500, max_clusters=3, seed=1)
        eager = sampler.select(trace)
        source = GeneratorSource(
            multi_slice_kernel.stream,
            {"num_uops": 6_000, "num_slices": 4, "work_per_iteration": 16},
        )
        streamed, total = sampler.select_source(source)
        assert streamed == eager
        assert total == len(trace)

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
        result = run_simpoints(
            trace, variant="ooo", interval_size=1_000, max_clusters=2
        )
        assert isinstance(result, SimPointRunResult)
        assert result.total_uops == len(trace)
        # Strictly fewer micro-ops executed than the full run...
        assert 0 < result.simulated_uops < result.total_uops
        assert sum(e.result.stats.committed_uops for e in result.intervals) == (
            result.simulated_uops
        )
        # ...while the weighted stats cover the whole trace.
        assert result.weighted_stats.committed_uops == result.total_uops
        assert result.weighted_stats.cycles > 0
        assert result.weighted_ipc > 0
        assert result.sampling_fraction < 1.0

    def test_weighted_ipc_tracks_full_run(self):
        trace = strided_stream(num_uops=12_000)
        windowed = run_simpoints(
            trace, variant="ooo", interval_size=2_000, max_clusters=3
        )
        full = run_simulation(trace, SimulationRequest(variant="ooo"))
        # The stream is highly regular, so the weighted estimate must land
        # near the full-run IPC (generous band: sampling skips warm-up).
        assert windowed.weighted_ipc == pytest.approx(full.ipc, rel=0.25)

    def test_probe_names_give_fresh_per_interval_reports(self):
        result = run_simpoints(
            profile_trace(),
            variant="ooo",
            interval_size=1_000,
            max_clusters=2,
            probes=["stall_breakdown"],
        )
        assert len(result.intervals) >= 2
        for entry in result.intervals:
            report = entry.result.probe_reports["stall_breakdown"]
            # Fresh probe per window: each report accounts exactly its own
            # interval's cycles, never accumulated earlier windows.
            assert sum(report["cycles"].values()) == entry.result.stats.cycles

    def test_probe_instances_rejected_to_prevent_accumulation(self):
        from repro.uarch.probes import StallBreakdownProbe

        with pytest.raises(TypeError, match="registry names"):
            run_simpoints(
                profile_trace(), variant="ooo", probes=[StallBreakdownProbe()]
            )

    def test_simpoint_result_serde_round_trip(self):
        result = run_simpoints(
            profile_trace(), variant="ooo", interval_size=1_000, max_clusters=2
        )
        restored = SimPointRunResult.from_dict(result.to_dict())
        assert restored.to_dict() == result.to_dict()
        assert restored.weighted_ipc == result.weighted_ipc


class TestLargeStreamAcceptance:
    """Acceptance: SimPoint-windowed run of a 10x-seed-size streaming trace."""

    def test_windowed_run_over_large_generator_source(self):
        num_uops = 200_000  # >= 10x the largest (20k) seed workload
        source = GeneratorSource(
            strided_stream.stream, {"num_uops": num_uops}, name="big_stream"
        )
        result = run_simpoints(
            source,
            variant="pre",
            interval_size=10_000,
            max_clusters=3,
        )
        assert result.total_uops >= num_uops
        assert result.simulated_uops < result.total_uops
        assert result.weighted_stats.committed_uops == result.total_uops
        assert result.weighted_ipc > 0
        # Windowed execution samples a small fraction of the stream.
        assert result.sampling_fraction <= 0.5
