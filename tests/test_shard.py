"""Sharded single-trace replay: planning invariants, stitching, exactness.

The tentpole contract has three layers, each tested here:

* :func:`~repro.simulation.shard.plan_shards` is a deterministic partition —
  property-tested (hypothesis) over arbitrary sizes/shard counts/warmups;
* stitching never lies about totals: stitched ``committed_uops`` equals the
  unsharded count, per-shard stats never include warmup commits, and the
  4-shard estimate stays within tolerance of the unsharded truth on every
  Figure-2 workload;
* the degenerate plan (one shard, zero warmup) is *exact*: digest-identical
  to :func:`~repro.simulation.simulator.run_simulation` and served from the
  same result-cache entry as a plain replay.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.registry import build_workload
from repro.simulation.engine import ExperimentEngine, JobSpec
from repro.simulation.golden import DEFAULT_GOLDEN_WORKLOADS, stats_digest
from repro.simulation.shard import (
    Shard,
    ShardedRunResult,
    plan_shards,
    run_sharded,
)
from repro.simulation.simulator import SimulationRequest, run_simpoints, run_simulation
from repro.workloads.generators import strided_stream
from repro.workloads.source import FileTraceSource, GeneratorSource, write_trace_file


class TestPlanShards:
    """The plan is an exact, ordered partition of [0, total)."""

    @given(
        total=st.integers(min_value=1, max_value=100_000),
        num_shards=st.integers(min_value=1, max_value=64),
        warmup=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=200, deadline=None)
    def test_partition_and_clamping(self, total, num_shards, warmup):
        plan = plan_shards(total, num_shards, warmup)
        assert len(plan.shards) == min(num_shards, total)
        # Contiguous, in order, covering [0, total) exactly.
        assert plan.shards[0].start == 0
        assert plan.shards[-1].end == total
        for prev, cur in zip(plan.shards, plan.shards[1:]):
            assert cur.start == prev.end
        # Near-equal split: sizes differ by at most one micro-op.
        sizes = [shard.measured_uops for shard in plan.shards]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == total
        # Warmup prefixes are the request clamped at the trace's beginning.
        for shard in plan.shards:
            assert shard.warmup_start == max(0, shard.start - warmup)
            assert shard.warmup_uops <= warmup
        assert plan.shards[0].warmup_uops == 0

    @given(
        total=st.integers(min_value=1, max_value=100_000),
        num_shards=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=100, deadline=None)
    def test_weights_sum_to_one(self, total, num_shards):
        plan = plan_shards(total, num_shards)
        assert sum(plan.weights()) == pytest.approx(1.0)

    def test_exact_only_for_single_shard_zero_warmup(self):
        assert plan_shards(100, 1).exact
        assert not plan_shards(100, 2).exact
        # One shard's warmup clamps to nothing, so the plan is still exact.
        clamped = plan_shards(100, 1, warmup_uops=10)
        assert clamped.shards[0].warmup_uops == 0
        assert clamped.exact

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="empty trace"):
            plan_shards(0, 4)
        with pytest.raises(ValueError, match="num_shards"):
            plan_shards(100, 0)
        with pytest.raises(ValueError, match="warmup_uops"):
            plan_shards(100, 4, warmup_uops=-1)
        with pytest.raises(ValueError, match="shard bounds"):
            Shard(index=0, start=10, end=5, warmup_start=0)


class TestExactPath:
    """shards=1 with zero warmup is the unsharded run, bit for bit."""

    def test_digest_identical_to_run_simulation(self):
        trace = build_workload("sphinx3", num_uops=3_000)
        base = run_simulation(trace, SimulationRequest(variant="ooo"))
        sharded = run_sharded(trace, variant="ooo", shards=1)
        assert sharded.exact
        assert stats_digest(sharded.stitched_stats) == stats_digest(base.stats)
        assert sharded.stitched_stats == base.stats

    @pytest.mark.parametrize("origin", ["in-memory", "recorded"])
    def test_shares_cache_entry_with_plain_replay(self, tmp_path, origin):
        trace = build_workload("milc", num_uops=1_500)
        if origin == "recorded":
            path = tmp_path / "milc.trc"
            write_trace_file(path, trace, name="milc")
            trace = FileTraceSource(path)
        engine = ExperimentEngine(cache_dir=str(tmp_path / "cache"))
        run_sharded(trace, variant="ooo", shards=1, engine=engine)
        assert engine.last_run_stats.simulated == 1
        # The same trace as a plain (un-windowed) job: full cache hit,
        # because the whole-trace window was normalised away.
        engine.run_jobs([JobSpec(trace=trace, variant="ooo")])
        assert engine.last_run_stats.simulated == 0
        assert engine.last_run_stats.cache_hits == 1


class TestStitching:
    """Stitched stats are whole-trace estimates with honest totals."""

    def test_committed_uops_and_warmup_isolation(self):
        trace = build_workload("sphinx3", num_uops=6_000)
        base = run_simulation(trace, SimulationRequest(variant="ooo"))
        sharded = run_sharded(trace, variant="ooo", shards=4, warmup_uops=750)
        assert not sharded.exact
        # Stitched totals equal the unsharded run's committed count exactly.
        assert sharded.stitched_stats.committed_uops == base.stats.committed_uops
        assert sharded.total_uops == base.stats.committed_uops
        for entry in sharded.shards:
            # Warmup commits never leak into a shard's measured statistics.
            assert entry.result.stats.committed_uops == entry.shard.measured_uops
            assert (
                entry.result.stats.events.committed_uops
                == entry.shard.measured_uops
            )
        # The warmup prefixes were simulated (they cost uops), just not counted.
        assert sharded.simulated_uops > sharded.total_uops

    @pytest.mark.parametrize("workload", DEFAULT_GOLDEN_WORKLOADS)
    def test_four_shard_ipc_within_tolerance(self, workload):
        trace = build_workload(workload, num_uops=12_000)
        base = run_simulation(trace, SimulationRequest(variant="ooo"))
        sharded = run_sharded(trace, variant="ooo", shards=4, warmup_uops=5_000)
        assert sharded.stitched_ipc == pytest.approx(base.ipc, rel=0.02)

    def test_serde_round_trip(self):
        trace = build_workload("mcf", num_uops=2_000)
        sharded = run_sharded(trace, variant="ooo", shards=3, warmup_uops=200)
        restored = ShardedRunResult.from_dict(sharded.to_dict())
        assert restored == sharded

    def test_unknown_length_source_is_materialized(self):
        # A GeneratorSource without an explicit length: run_sharded must
        # materialise it to discover the shard boundaries.
        source = GeneratorSource(
            lambda: iter(strided_stream(num_uops=2_000)), name="stride"
        )
        assert source.length is None
        sharded = run_sharded(source, variant="ooo", shards=2)
        assert sharded.total_uops == len(strided_stream(num_uops=2_000))
        assert len(sharded.shards) == 2

    def test_probe_instances_rejected(self):
        from repro.registry import PROBE_REGISTRY

        instance = PROBE_REGISTRY.entries()[0].create()
        trace = build_workload("mcf", num_uops=500)
        with pytest.raises(TypeError, match="registry names"):
            run_sharded(trace, variant="ooo", probes=[instance])


class TestEngineWindows:
    """The widened engine job model underneath the shard layer."""

    def test_jobspec_window_round_trips(self):
        job = JobSpec(
            workload="mcf", variant="pre", window=(100, 200), warmup_uops=50
        )
        restored = JobSpec.from_dict(job.to_dict())
        assert restored == job
        assert restored.window == (100, 200)  # tuple, not list, after serde

    def test_jobspec_requires_exactly_one_trace_origin(self):
        engine = ExperimentEngine()
        with pytest.raises(ValueError, match="exactly one"):
            engine.run_jobs([JobSpec(workload="", variant="ooo")])
        with pytest.raises(ValueError, match="exactly one"):
            engine.run_jobs(
                [
                    JobSpec(
                        workload="mcf",
                        trace=build_workload("mcf", num_uops=100),
                        variant="ooo",
                    )
                ]
            )

    @pytest.mark.parametrize(
        "job, message",
        [
            (
                JobSpec(workload="milc", window=(100, 300), warmup_uops=-20),
                "warmup_uops must be >= 0",
            ),
            (JobSpec(workload="mcf", num_uops=0), "num_uops must be positive"),
            (JobSpec(workload="mcf", num_uops=-5), "num_uops must be positive"),
        ],
    )
    def test_bad_jobs_rejected_at_expansion(self, job, message):
        # Rejected before a cache key exists, not mid-run in a worker.
        with pytest.raises(ValueError, match=message):
            ExperimentEngine().expand_job_payloads([job])

    def test_variant_jobs_of_one_trace_share_a_batch(self):
        trace = build_workload("mcf", num_uops=400)
        payloads = ExperimentEngine().expand_job_payloads(
            [JobSpec(trace=trace, variant=variant) for variant in ("ooo", "pre")]
        )
        assert all(payload["trace"] is trace for payload in payloads)
        assert len(ExperimentEngine._batch_payloads(payloads)) == 1

    def test_windowed_jobs_never_batch_together(self):
        trace = build_workload("mcf", num_uops=400)
        payloads = [
            {"trace": trace, "window": [0, 200], "warmup_uops": 0},
            {"trace": trace, "window": [200, 400], "warmup_uops": 0},
        ]
        batches = ExperimentEngine._batch_payloads(payloads)
        assert len(batches) == 2  # each window must reach its own worker

    def test_simpoints_hit_shared_cache(self, tmp_path):
        trace = build_workload("sphinx3", num_uops=6_000)
        engine = ExperimentEngine(cache_dir=str(tmp_path / "cache"))
        first = run_simpoints(trace, variant="ooo", engine=engine)
        assert engine.last_run_stats.simulated > 0
        second = run_simpoints(trace, variant="ooo", engine=engine)
        assert engine.last_run_stats.simulated == 0
        assert engine.last_run_stats.cache_hits == engine.last_run_stats.total_jobs
        assert second == first
