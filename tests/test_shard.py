"""Windowed single-trace replay: planning invariants, stitching, exactness.

The contract has three layers, each tested here:

* :func:`~repro.simulation.shard.plan_shards` is a deterministic partition —
  property-tested (hypothesis) over arbitrary sizes/shard counts/warmups —
  and :func:`~repro.simulation.shard.plan_simpoints` yields sorted, disjoint,
  weighted windows with clamped warmup prefixes;
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
    plan_simpoints,
    run_sharded,
)
from repro.simulation.simulator import SimulationRequest, run_simulation
from repro.workloads.generators import strided_stream
from repro.workloads.source import FileTraceSource, GeneratorSource, write_trace_file


@pytest.fixture(scope="module")
def exact_12k():
    """A Figure-2 workload's 12k-uop trace and exact ooo run, built once each."""
    runs = {}

    def get(workload):
        if workload not in runs:
            trace = build_workload(workload, num_uops=12_000)
            runs[workload] = (
                trace,
                run_simulation(trace, SimulationRequest(variant="ooo")),
            )
        return runs[workload]

    return get


class TestPlanShards:
    """``plan_shards`` partitions [0, total); ``plan_simpoints`` samples it."""

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
        assert sum(plan.weights) == pytest.approx(1.0)

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
        with pytest.raises(ValueError, match="warmup_uops"):
            plan_simpoints(build_workload("mcf", num_uops=500), warmup_uops=-1)
        with pytest.raises(ValueError, match="empty trace"):
            plan_simpoints(GeneratorSource(lambda: iter(()), name="empty"))

    @pytest.mark.parametrize("warmup", [0, 700, 5_000])
    def test_simpoint_plan_shape(self, warmup):
        trace = build_workload("milc", num_uops=6_000)
        plan = plan_simpoints(
            trace, interval_size=500, max_clusters=3, warmup_uops=warmup
        )
        assert plan.total_uops == len(trace)
        assert plan.warmup_uops == warmup
        assert 1 <= len(plan.shards) <= 3
        assert len(plan.weights) == len(plan.shards)
        assert sum(plan.weights) == pytest.approx(1.0)
        # Sorted, disjoint windows inside [0, total).
        for prev, cur in zip(plan.shards, plan.shards[1:]):
            assert prev.end <= cur.start
        for index, shard in enumerate(plan.shards):
            assert shard.index == index
            assert 0 <= shard.start < shard.end <= plan.total_uops
            assert shard.warmup_start == max(0, shard.start - warmup)

    def test_single_phase_trace_plans_latest_interval(self):
        # Every interval of libquantum has the same PC vector; the tie goes
        # to the last one, which a warmup prefix can reach.
        trace = build_workload("libquantum", num_uops=12_000)
        plan = plan_simpoints(trace, warmup_uops=2_000)
        windows = [(shard.start, shard.end) for shard in plan.shards]
        assert windows == [(10_000, 12_000)]
        assert plan.shards[0].warmup_uops == 2_000
        assert plan.weights == (1.0,)


class TestExactPath:
    """shards=1 with zero warmup is the unsharded run, bit for bit."""

    def test_digest_identical_to_run_simulation(self):
        trace = build_workload("sphinx3", num_uops=3_000)
        base = run_simulation(trace, SimulationRequest(variant="ooo"))
        sharded = run_sharded(trace, plan_shards(trace.length, 1), "ooo")
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
        run_sharded(trace, plan_shards(trace.length, 1), "ooo", engine=engine)
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
        sharded = run_sharded(trace, plan_shards(trace.length, 4, 750), "ooo")
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

    def test_summaries_stitch_like_counters(self):
        trace = build_workload("mcf", num_uops=4_000)
        sharded = run_sharded(trace, plan_shards(trace.length, 4, 500), "pre")
        stitched = sharded.stitched_stats
        shards = [entry.result.stats for entry in sharded.shards]
        # Contiguous shards weigh measured/total uops, so each weighted
        # summary is the sum of the shards' own.
        assert stitched.runahead_interval_bins == [
            sum(column) for column in zip(*(stats.runahead_interval_bins for stats in shards))
        ]
        assert sum(stitched.runahead_interval_bins) > 0
        assert stitched.runahead_interval_cycles == sum(
            stats.runahead_interval_cycles for stats in shards
        )
        assert stitched.stall_free_iq_sum == pytest.approx(
            sum(stats.stall_free_iq_sum for stats in shards)
        )
        assert 0.0 < stitched.mean_free_resources()["iq"] <= 1.0

    @pytest.mark.parametrize("workload", DEFAULT_GOLDEN_WORKLOADS)
    def test_four_shard_ipc_within_tolerance(self, workload, exact_12k):
        trace, base = exact_12k(workload)
        sharded = run_sharded(trace, plan_shards(trace.length, 4, 5_000), "ooo")
        assert sharded.stitched_ipc == pytest.approx(base.ipc, rel=0.02)

    @pytest.mark.parametrize("workload", DEFAULT_GOLDEN_WORKLOADS)
    def test_simpoint_warmup_reduces_error(self, workload, exact_12k):
        trace, base = exact_12k(workload)
        cold, warm = (
            abs(
                run_sharded(trace, plan_simpoints(trace, warmup_uops=warmup), "ooo")
                .stitched_ipc / base.ipc - 1
            )
            for warmup in (0, 2_000)
        )
        assert warm < cold

    def test_serde_round_trip(self):
        trace = build_workload("mcf", num_uops=2_000)
        sharded = run_sharded(trace, plan_shards(trace.length, 3, 200), "ooo")
        restored = ShardedRunResult.from_dict(sharded.to_dict())
        assert restored == sharded

    def test_unknown_length_source_runs_through_simpoint_plan(self):
        # A GeneratorSource without an explicit length: the SimPoint planner
        # counts the stream while profiling it, so nothing is materialised.
        source = GeneratorSource(
            lambda: iter(strided_stream(num_uops=6_000)), name="stride"
        )
        assert source.length is None
        sharded = run_sharded(
            source, plan_simpoints(source, interval_size=1_000, max_clusters=2), "ooo"
        )
        assert sharded.total_uops == len(strided_stream(num_uops=6_000))
        assert sharded.stitched_stats.committed_uops == sharded.total_uops
        assert 1 <= len(sharded.shards) <= 2

    def test_probe_instances_rejected(self):
        from repro.registry import PROBE_REGISTRY

        instance = PROBE_REGISTRY.entries()[0].create()
        trace = build_workload("mcf", num_uops=500)
        with pytest.raises(TypeError, match="registry names"):
            run_sharded(trace, plan_shards(trace.length, 1), "ooo", probes=[instance])


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
            (JobSpec(workload="mcf", max_cycles=0), "max_cycles must be positive"),
            (JobSpec(workload="mcf", max_cycles=-5), "max_cycles must be positive"),
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
        plan = plan_simpoints(trace, warmup_uops=1_000)
        first = run_sharded(trace, plan, "ooo", engine=engine)
        assert engine.last_run_stats.simulated > 0
        second = run_sharded(trace, plan, "ooo", engine=engine)
        assert engine.last_run_stats.simulated == 0
        assert engine.last_run_stats.cache_hits == engine.last_run_stats.total_jobs
        assert second == first
