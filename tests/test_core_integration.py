"""Integration tests: the baseline core and the four runahead variants end to end."""

import pytest

from repro import CoreConfig, VARIANTS, build_controller, build_core
from repro.core.pre import PreciseRunaheadController
from repro.core.runahead import TraditionalRunaheadController
from repro.core.runahead_buffer import RunaheadBufferController
from repro.registry import build_workload
from repro.simulation.simulator import SimulationRequest, run_simulation
from repro.uarch.core import ExecutionMode, OoOCore
from repro.uarch.probes import Probe, RunaheadIntervalLogProbe
from repro.uarch.stats import INTERVAL_BIN_EDGES
from repro.workloads.generators import (
    compute_kernel,
    linked_list_chase,
    multi_slice_kernel,
    strided_stream,
)


SMALL = 1_200
MEDIUM = 3_000


@pytest.fixture(scope="module")
def memory_trace():
    return multi_slice_kernel(num_uops=MEDIUM, num_slices=4, work_per_iteration=16)


@pytest.fixture(scope="module")
def stream_trace():
    return strided_stream(num_uops=MEDIUM)


class TestBaselineCore:
    def test_commits_entire_trace(self):
        trace = compute_kernel(num_uops=SMALL)
        core = build_core(trace, variant="ooo")
        stats = core.run(max_cycles=200_000)
        assert stats.committed_uops == len(trace)
        assert stats.cycles > 0

    def test_compute_kernel_ipc_reasonable(self):
        trace = compute_kernel(num_uops=SMALL)
        stats = build_core(trace, variant="ooo").run(max_cycles=200_000)
        # A 4-wide core on independent integer work should clearly beat 1 IPC.
        assert stats.ipc > 1.0
        assert stats.full_window_stalls == 0

    def test_memory_trace_produces_full_window_stalls(self, memory_trace):
        stats = build_core(memory_trace, variant="ooo").run(max_cycles=2_000_000)
        assert stats.full_window_stalls > 0
        assert stats.long_latency_loads > 0
        assert stats.full_window_stall_cycles > 0

    def test_full_window_stalls_report_free_resources(self, memory_trace):
        stats = build_core(memory_trace, variant="ooo").run(max_cycles=2_000_000)
        free = stats.mean_free_resources()
        # Section 3.4: a sizeable fraction of the IQ and register files is free
        # at runahead entry.
        assert 0.0 < free["iq"] <= 1.0
        assert 0.0 < free["int_regs"] <= 1.0
        assert 0.0 < free["fp_regs"] <= 1.0

    def test_commit_count_matches_trace_loads_and_stores(self):
        trace = strided_stream(num_uops=SMALL)
        stats = build_core(trace, variant="ooo").run(max_cycles=2_000_000)
        expected = trace.stats()
        assert stats.committed_loads == expected.num_loads
        assert stats.committed_stores == expected.num_stores

    def test_max_cycles_stops_early(self):
        trace = linked_list_chase(num_uops=MEDIUM)
        stats = build_core(trace, variant="ooo").run(max_cycles=500)
        assert stats.cycles <= 501
        assert stats.committed_uops < len(trace)


class TestControllersCommitCorrectly:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_all_variants_commit_full_trace(self, variant, memory_trace):
        core = build_core(memory_trace, variant=variant)
        stats = core.run(max_cycles=3_000_000)
        assert stats.committed_uops == len(memory_trace)
        assert core.mode == ExecutionMode.NORMAL

    @pytest.mark.parametrize("variant", [v for v in VARIANTS if v != "ooo"])
    def test_compute_only_trace_never_enters_runahead(self, variant):
        trace = compute_kernel(num_uops=SMALL)
        stats = build_core(trace, variant=variant).run(max_cycles=200_000)
        assert stats.runahead_invocations == 0
        assert stats.committed_uops == len(trace)

    @pytest.mark.parametrize("variant", [v for v in VARIANTS if v != "ooo"])
    def test_memory_trace_invokes_runahead(self, variant, memory_trace):
        core = build_core(memory_trace, variant=variant)
        stats = core.run(max_cycles=3_000_000)
        assert stats.runahead_invocations > 0
        assert core.mode == ExecutionMode.NORMAL
        # A completed run closes every interval it opened, and its closed
        # intervals span exactly the cycles it spent in runahead mode.
        assert sum(stats.runahead_interval_bins) == stats.runahead_invocations
        assert stats.runahead_interval_cycles == stats.runahead_cycles > 0


class BoundaryProbe(Probe):
    """Free fractions at every full-window stall, every runahead entry cycle,
    and the committed-uop count at each runahead entry made in a step that
    also committed micro-ops.  It keeps its warmup records."""

    name = "boundary"

    def __init__(self):
        self.stalls = []
        self.entry_cycles = []
        self.entries_after_commit = []
        self._last_commit_cycle = -1

    def on_commit(self, core, instr, cycle):
        self._last_commit_cycle = cycle

    def on_full_window_stall(self, core, instr, cycle):
        self.stalls.append(
            (cycle, core.iq.free_fraction, core.int_rf.free_fraction, core.fp_rf.free_fraction)
        )

    def on_runahead_enter(self, core, cycle):
        self.entry_cycles.append(cycle)
        if self._last_commit_cycle == cycle:
            self.entries_after_commit.append(core.committed_trace_uops)


class TestStatsSummaries:
    """CoreStats summarises intervals and stalls in fixed-size fields."""

    def test_warmup_boundary_resets_the_summaries(self):
        trace = build_workload("mcf", num_uops=3_000)
        # Warm up to a step that both commits and enters runahead, so one
        # interval is open across the warmup/measurement boundary.
        scout = BoundaryProbe()
        OoOCore(trace, controller=build_controller("pre_emq"), probes=[scout]).run()
        warmup = next(count for count in scout.entries_after_commit if count >= 1_000)
        probe, log = BoundaryProbe(), RunaheadIntervalLogProbe()
        core = OoOCore(trace, controller=build_controller("pre_emq"), probes=[probe, log])
        stats = core.run(stats_start_uop=warmup)
        boundary = core.cycle - stats.cycles
        # The boundary step's own stall and entry precede the reset.
        measured = [stall for stall in probe.stalls if stall[0] > boundary]
        assert 0 < len(measured) == stats.full_window_stalls < len(probe.stalls)
        sums = (stats.stall_free_iq_sum, stats.stall_free_int_reg_sum, stats.stall_free_fp_reg_sum)
        for column, total in enumerate(sums, start=1):
            assert total == pytest.approx(sum(stall[column] for stall in measured))
        assert boundary in probe.entry_cycles
        # The log dropped its warmup records, the interval open across the
        # boundary with them.
        assert all(entry["entry"] > boundary for entry in log.entries)
        closed = [e for e in log.entries if e["exit"] >= 0]
        assert len(stats.runahead_interval_bins) == len(INTERVAL_BIN_EDGES) + 1
        assert sum(stats.runahead_interval_bins) == len(closed) > 0
        assert stats.runahead_interval_cycles == sum(entry["length"] for entry in closed)

    def test_serialised_stats_do_not_grow_with_run_length(self):
        sizes = [
            len(
                run_simulation(
                    build_workload("mcf", num_uops=num_uops), SimulationRequest(variant="pre")
                ).stats.to_json()
            )
            for num_uops in (1_500, 6_000)
        ]
        assert abs(sizes[1] - sizes[0]) <= 64


class TestRunaheadBehaviour:
    def test_pre_does_not_flush_pipeline(self, memory_trace):
        stats = build_core(memory_trace, variant="pre").run(max_cycles=3_000_000)
        assert stats.runahead_invocations > 0
        assert stats.pipeline_flushes == 0

    def test_traditional_runahead_flushes_once_per_interval(self, memory_trace):
        stats = build_core(memory_trace, variant="runahead").run(max_cycles=3_000_000)
        assert stats.runahead_invocations > 0
        assert stats.pipeline_flushes == stats.runahead_invocations

    def test_pre_invokes_runahead_at_least_as_often_as_ra(self, memory_trace):
        ra = build_core(memory_trace, variant="runahead").run(max_cycles=3_000_000)
        pre = build_core(memory_trace, variant="pre").run(max_cycles=3_000_000)
        # Section 5.1: PRE enters runahead mode more frequently because it has
        # no minimum-interval restriction and no flush overhead.
        assert pre.runahead_invocations >= ra.runahead_invocations

    def test_pre_learns_stalling_slices_in_sst(self, memory_trace):
        controller = PreciseRunaheadController()
        core = OoOCore(memory_trace, controller=controller)
        core.run(max_cycles=3_000_000)
        assert controller.sst is not None
        assert len(controller.sst) > 0
        load_pcs = {uop.pc for uop in memory_trace if uop.is_load}
        assert load_pcs & set(controller.sst.pcs())

    def test_pre_issues_prefetches_and_they_are_consumed(self, memory_trace):
        stats = build_core(memory_trace, variant="pre").run(max_cycles=3_000_000)
        assert stats.runahead_prefetches > 0
        assert stats.loads_hit_under_prefetch > 0

    def test_pre_emq_bounds_runahead_depth(self, stream_trace):
        small_emq = OoOCore(
            stream_trace,
            config=CoreConfig(emq_entries=64),
            controller=PreciseRunaheadController(use_emq=True),
        )
        stats_small = small_emq.run(max_cycles=3_000_000)
        large_emq = OoOCore(
            stream_trace,
            config=CoreConfig(emq_entries=768),
            controller=PreciseRunaheadController(use_emq=True),
        )
        stats_large = large_emq.run(max_cycles=3_000_000)
        assert stats_small.committed_uops == stats_large.committed_uops == len(stream_trace)
        assert stats_small.runahead_prefetches <= stats_large.runahead_prefetches

    def test_runahead_buffer_extracts_chains(self, memory_trace):
        controller = RunaheadBufferController()
        core = OoOCore(memory_trace, controller=controller)
        core.run(max_cycles=3_000_000)
        assert controller.buffer_stats.chains_built > 0
        assert (
            controller.buffer_stats.total_chain_length
            >= controller.buffer_stats.chains_built
        )

    def test_runahead_buffer_pointer_chase_chain_is_self_dependent(self):
        trace = linked_list_chase(num_uops=MEDIUM)
        controller = RunaheadBufferController()
        core = OoOCore(trace, controller=controller)
        core.run(max_cycles=4_000_000)
        if controller.buffer_stats.chains_built:
            assert controller.buffer_stats.self_dependent_chains > 0
        assert core.stats.runahead_prefetches == 0

    @pytest.mark.parametrize("variant", ["runahead", "runahead_buffer"])
    def test_runahead_useless_period_throttling_on_pointer_chase(self, variant):
        trace = linked_list_chase(num_uops=MEDIUM)
        stats = build_core(trace, variant=variant).run(max_cycles=4_000_000)
        # Pointer chasing generates no prefetches, so the Mutlu-style
        # throttling RA and RA-buffer share must kick in and keep most stalls
        # out of runahead mode.
        assert stats.runahead_invocations < stats.full_window_stalls

    def test_variant_builder_rejects_unknown(self):
        with pytest.raises(ValueError):
            build_controller("warp-drive")


class TestPerformanceOrdering:
    """The headline result: PRE improves performance over the baseline and
    over traditional runahead on multi-slice memory-intensive workloads."""

    @pytest.fixture(scope="class")
    def cycles(self):
        trace = multi_slice_kernel(num_uops=4_000, num_slices=4, work_per_iteration=16)
        results = {}
        for variant in VARIANTS:
            results[variant] = build_core(trace, variant=variant).run(max_cycles=4_000_000).cycles
        return results

    def test_pre_beats_baseline(self, cycles):
        assert cycles["pre"] < cycles["ooo"]

    def test_pre_emq_beats_baseline(self, cycles):
        assert cycles["pre_emq"] < cycles["ooo"]

    def test_pre_at_least_matches_traditional_runahead(self, cycles):
        assert cycles["pre"] <= cycles["runahead"] * 1.02

    def test_runahead_variants_do_not_catastrophically_regress(self, cycles):
        for variant in ("runahead", "runahead_buffer"):
            assert cycles[variant] < cycles["ooo"] * 1.15


class TestConfigOverrides:
    def test_with_overrides_creates_new_config(self):
        config = CoreConfig()
        small = config.with_overrides(rob_size=64)
        assert small.rob_size == 64
        assert config.rob_size == 192

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            CoreConfig(rob_size=0)
        with pytest.raises(ValueError):
            CoreConfig(int_registers=16)

    def test_table1_summary_mentions_key_parameters(self):
        summary = CoreConfig().summary()
        assert "ROB: 192" in summary["Core"]
        assert "168 int" in summary["Register file"]
        assert summary["PRDQ size"] == "192"
        assert summary["EMQ size"] == "768"

    def test_smaller_rob_still_simulates(self):
        trace = multi_slice_kernel(num_uops=SMALL, num_slices=2)
        config = CoreConfig().with_overrides(rob_size=64, issue_queue_size=32)
        stats = OoOCore(trace, config=config).run(max_cycles=2_000_000)
        assert stats.committed_uops == len(trace)
