"""Multi-core simulation: one loop, attribution, and contention.

The multi-core path makes three claims this suite pins down:

1. **One loop, one set-up path** — :func:`run_multicore` and
   :func:`run_simulation` build cores through one function, and
   :func:`run_lockstep` drives one core or N, so a one-core
   :func:`run_multicore` matches :func:`run_simulation` (whose golden
   digests ``test_golden_stats.py`` pins), and a stuck core surfaces as
   :class:`SimulationDeadlock` without stopping its neighbours.
2. **Attribution conservation** — the uncore's per-core L3/DRAM counters are
   bookkeeping carved out of the shared models' own statistics; summed over
   cores they must equal the shared totals exactly, for any core count and
   variant mix (property-based).
3. **Contention is real** — a PRE core paired with a memory-hungry neighbour
   loses IPC versus running alone, and the neighbour's traffic shows up in the
   per-core queue-delay/bus attribution.

The spec plumbing (``MultiCoreSpec`` through engine jobs, sweep cache keys and
study expansion) rides along in the later test groups.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import build_controller
from repro.memory.hierarchy import HierarchyConfig, PrivateHierarchy, SharedUncore
from repro.registry import build_workload
from repro.simulation.engine import ExperimentEngine, SweepSpec
from repro.simulation.golden import stats_digest
from repro.simulation.multicore import (
    DEFAULT_ADDRESS_STRIDE,
    CoreAssignment,
    MultiCoreSimulator,
    MultiCoreSpec,
    run_multicore,
)
from repro.simulation.simulator import SimulationRequest, run_simulation
from repro.simulation.study import build_multicore_spec, build_study, study_jobs
from repro.uarch.core import OoOCore, SimulationDeadlock, run_lockstep
from repro.uarch.stats import CoreStats


# ----------------------------------------- 1. one loop, one set-up path


class TestSingleCoreGoldenIdentity:
    def test_one_core_result_carries_per_core_sections(self):
        trace = build_workload("bwaves", num_uops=400)
        result = run_multicore([(trace, "pre")])
        assert len(result.cores) == 1
        assert result.cores[0].core_id == 0
        assert result.cores[0].variant == "pre"
        assert result.cores[0].stats is result.stats
        assert result.uncore is not None
        assert result.uncore.num_cores == 1

    def test_matches_run_simulation_exactly(self):
        trace = build_workload("mcf", num_uops=600)
        single = run_simulation(trace, SimulationRequest(variant="runahead"))
        multi = run_multicore([(trace, "runahead")])
        assert stats_digest(multi.stats) == stats_digest(single.stats)
        assert multi.energy.total_nj == single.energy.total_nj
        # The single-core entry point reports no per-core sections.
        assert single.cores == [] and single.uncore is None


class StubCore:
    """Implements only the stepping API the lockstep loop drives.

    Commits one of ``work`` units on every third cycle and idles in between
    (so the loop's fast-forward path runs too); a ``stuck`` stub never makes
    progress and has nothing scheduled.
    """

    def __init__(self, work: int = 5, stuck: bool = False) -> None:
        self.cycle = 0
        self.remaining = work
        self.stuck = stuck
        self.finish_cycle = None

    @property
    def finished(self) -> bool:
        return not self.stuck and self.remaining == 0

    def begin_run(self, stats_start_uop=None) -> None:
        pass

    def step_cycle(self) -> bool:
        if self.stuck or self.cycle % 3:
            return False
        self.remaining -= 1
        return True

    def next_wake_cycle(self):
        return None if self.stuck else self.cycle + 3 - self.cycle % 3

    def skip_to(self, wake: int) -> None:
        self.cycle = max(wake, self.cycle + 1)

    def finish_run(self) -> CoreStats:
        self.finish_cycle = self.cycle
        return CoreStats(cycles=self.cycle)

    def deadlock_report(self) -> str:
        return f"stub stuck at cycle {self.cycle}"


class TestLockstepLoop:
    def test_stub_cores_run_to_completion(self):
        cores = [StubCore(work=4), StubCore(work=2)]
        stats = MultiCoreSimulator(cores).run()
        assert [entry.cycles for entry in stats] == [10, 4]

    def test_lone_stuck_core_raises_with_its_report(self):
        stuck = StubCore(stuck=True)
        with pytest.raises(SimulationDeadlock) as excinfo:
            run_lockstep([stuck])
        assert stuck.deadlock_report() in str(excinfo.value)

    def test_stuck_core_does_not_stop_its_neighbour(self):
        worker, stuck = StubCore(work=5), StubCore(stuck=True)
        with pytest.raises(SimulationDeadlock) as excinfo:
            MultiCoreSimulator([worker, stuck]).run()
        # The neighbour ran to the end and was finalised before the error,
        # which names only the stuck core.
        assert worker.finished and worker.finish_cycle == 13
        assert stuck.cycle >= worker.finish_cycle
        message = str(excinfo.value)
        assert "[core 1]" in message and "[core 0]" not in message
        assert stuck.deadlock_report() in message


# ------------------------------------------- 2. attribution conservation


def _build_cores(assignments, num_uops, hierarchy_config=None):
    """(uncore, cores) for a list of (workload, variant) pairs."""
    hierarchy_config = hierarchy_config or HierarchyConfig()
    uncore = SharedUncore(config=hierarchy_config, num_cores=len(assignments))
    cores = []
    for core_id, (workload, variant) in enumerate(assignments):
        hierarchy = PrivateHierarchy(
            config=hierarchy_config,
            uncore=uncore,
            core_id=core_id,
            addr_offset=core_id * DEFAULT_ADDRESS_STRIDE,
        )
        cores.append(
            OoOCore(
                build_workload(workload, num_uops=num_uops),
                hierarchy=hierarchy,
                controller=build_controller(variant),
            )
        )
    return uncore, cores


class TestAttributionConservation:
    @given(
        assignments=st.lists(
            st.tuples(
                st.sampled_from(["bwaves", "mcf", "milc"]),
                st.sampled_from(["ooo", "pre"]),
            ),
            min_size=1,
            max_size=3,
        ),
        num_uops=st.integers(min_value=120, max_value=350),
    )
    @settings(max_examples=12, deadline=None)
    def test_per_core_counters_sum_to_shared_totals(self, assignments, num_uops):
        uncore, cores = _build_cores(assignments, num_uops)
        MultiCoreSimulator(cores).run()
        assert sum(uncore.l3_hits) == uncore.l3.stats.hits
        assert sum(uncore.l3_misses) == uncore.l3.stats.misses
        assert sum(uncore.dram_reads) == uncore.dram.stats.reads
        assert sum(uncore.dram_writes) == uncore.dram.stats.writes
        # Attribution never goes negative and every list covers every core.
        for counters in (
            uncore.l3_hits,
            uncore.l3_misses,
            uncore.dram_reads,
            uncore.dram_writes,
            uncore.dram_queue_delay_cycles,
            uncore.bus_busy_cycles,
        ):
            assert len(counters) == len(assignments)
            assert all(value >= 0 for value in counters)

    def test_report_lists_are_copies_of_the_live_uncore(self):
        trace = build_workload("bwaves", num_uops=300)
        result = run_multicore([(trace, "pre"), (trace, "ooo")])
        report = result.uncore
        assert report.num_cores == 2
        assert sum(report.dram_reads) > 0
        assert sum(report.l3_misses) >= sum(report.dram_reads)


# ------------------------------------------------------ 3. contention smoke


class TestContention:
    def test_pre_loses_ipc_next_to_a_memory_hungry_neighbour(self):
        """bwaves/pre alone runs strictly faster than next to mcf/ooo."""
        num_uops = 2000
        bwaves = build_workload("bwaves", num_uops=num_uops)
        mcf = build_workload("mcf", num_uops=num_uops)
        solo = run_multicore([(bwaves, "pre")])
        paired = run_multicore([(bwaves, "pre"), (mcf, "ooo")])
        assert paired.ipc < solo.ipc
        # The neighbour's traffic is visible — and attributed to core 1.
        assert paired.uncore.dram_reads[1] > 0
        assert sum(paired.uncore.dram_queue_delay_cycles) > 0

    def test_heterogeneous_variants_per_core(self):
        trace = build_workload("bwaves", num_uops=400)
        result = run_multicore([(trace, "pre"), (trace, "ooo")])
        assert [core.variant for core in result.cores] == ["pre", "ooo"]
        assert result.variant == "pre"  # core 0 is the focus core

    def test_rejects_bad_inputs(self):
        trace = build_workload("bwaves", num_uops=100)
        with pytest.raises(ValueError, match="at least one"):
            run_multicore([])
        with pytest.raises(ValueError, match="unknown variant"):
            run_multicore([(trace, "warp")])
        with pytest.raises(ValueError, match="address_stride"):
            run_multicore([(trace, "ooo")], address_stride=0)


# ---------------------------------------------------- 4. request API + serde


class TestSimulationRequest:
    def test_round_trips_through_json(self):
        request = SimulationRequest(
            variant="pre", max_cycles=5000, probes=["mlp"], warmup_uops=0
        )
        assert SimulationRequest.from_dict(request.to_dict()) == request

    def test_rejects_unknown_variant_and_negative_warmup(self):
        trace = build_workload("milc", num_uops=100)
        with pytest.raises(ValueError, match="unknown variant"):
            run_simulation(trace, SimulationRequest(variant="warp"))
        with pytest.raises(ValueError, match="warmup_uops"):
            run_simulation(trace, SimulationRequest(warmup_uops=-1))

    def test_rejects_warmup_past_the_end_of_the_trace(self):
        trace = build_workload("milc", num_uops=500)
        length = len(trace)
        # A warmup of the whole trace leaves nothing to measure ...
        whole = run_simulation(
            trace, SimulationRequest(variant="ooo", warmup_uops=length)
        )
        assert whole.stats.committed_uops == 0
        # ... and one past its end cannot be honoured, so it is refused.
        with pytest.raises(ValueError, match="warmup_uops"):
            run_simulation(
                trace, SimulationRequest(variant="ooo", warmup_uops=length + 1)
            )

    def test_multicore_spec_round_trips(self):
        spec = MultiCoreSpec(
            cores=[CoreAssignment(workload="mcf", variant="ooo", num_uops=800)],
            address_stride=1 << 20,
        )
        assert MultiCoreSpec.from_dict(spec.to_dict()) == spec
        assert spec.num_cores == 2
        with pytest.raises(ValueError, match="address_stride"):
            MultiCoreSpec(address_stride=0)


# --------------------------------------------------- 5. engine integration


def _contended_sweep(num_uops=300):
    return SweepSpec(
        workloads=["bwaves"],
        variants=["pre"],
        num_uops=num_uops,
        multicore=MultiCoreSpec(cores=[CoreAssignment(workload="mcf")]),
    )


class TestEngineMulticoreJobs:
    def test_multicore_results_flow_through_the_engine(self):
        engine = ExperimentEngine(workers=1)
        sweep = engine.run_sweep(_contended_sweep())
        for cell in sweep.cells:
            for result in cell.comparison.benchmarks[0].results.values():
                assert len(result.cores) == 2
                assert result.cores[1].variant == "ooo"
                assert result.cores[1].trace_name == "mcf"
                assert result.uncore is not None and result.uncore.num_cores == 2

    def test_second_run_is_fully_cached(self, tmp_path):
        engine = ExperimentEngine(workers=1, cache_dir=tmp_path)
        engine.run_sweep(_contended_sweep())
        stats = engine.last_run_stats
        assert stats.simulated == stats.total_jobs
        engine.run_sweep(_contended_sweep())
        stats = engine.last_run_stats
        assert stats.simulated == 0
        assert stats.cache_hits == stats.total_jobs
        # Per-core sections survive the cache round-trip.
        sweep = engine.run_sweep(_contended_sweep())
        result = next(iter(sweep.cells[0].comparison.benchmarks[0].results.values()))
        assert len(result.cores) == 2 and result.uncore is not None

    def test_cache_keys_differ_from_single_core_runs(self, tmp_path):
        engine = ExperimentEngine(workers=1, cache_dir=tmp_path)
        engine.run_sweep(_contended_sweep())
        engine.run_sweep(
            SweepSpec(workloads=["bwaves"], variants=["pre"], num_uops=300)
        )
        assert engine.last_run_stats.cache_hits == 0

    def test_multicore_rejects_window_replay(self):
        from repro.simulation.engine import JobSpec

        multicore = MultiCoreSpec(cores=[CoreAssignment(workload="mcf")])
        engine = ExperimentEngine(workers=1)
        replay = JobSpec(
            variant="pre",
            trace=build_workload("mcf", num_uops=200),
            multicore=multicore,
        )
        with pytest.raises(ValueError, match="multicore"):
            engine.expand_job_payloads([replay])
        windowed = JobSpec(
            workload="mcf", variant="pre", window=(0, 100), multicore=multicore
        )
        with pytest.raises(ValueError, match="multicore"):
            engine.expand_job_payloads([windowed])


# ----------------------------------------------------- 6. study integration


class TestStudyIntegration:
    def test_build_multicore_spec_validation(self):
        assert build_multicore_spec({}) is None
        spec = build_multicore_spec({"co_workload": "mcf", "co_variant": "pre"})
        assert spec.num_cores == 2
        assert spec.cores[0] == CoreAssignment(workload="mcf", variant="pre")
        with pytest.raises(KeyError, match="co_wrkload"):
            build_multicore_spec({"co_wrkload": "mcf"})
        with pytest.raises(ValueError):
            build_multicore_spec({"co_runners": -1})
        with pytest.raises(ValueError):
            build_multicore_spec({"co_runners": 2})  # no co_workload
        with pytest.raises(ValueError):
            build_multicore_spec({"co_variant": "pre"})  # no co-runner

    def test_contention_study_expands_and_attaches_specs(self):
        spec = build_study("multicore-contention", num_uops=200)
        points = spec.expand()
        assert [point.label for point in points] == [
            "neighbor=none",
            "neighbor=ooo",
            "neighbor=pre",
        ]
        jobs = study_jobs(spec, ExperimentEngine(workers=1))
        # Every point runs through the multi-core path — "none" as a
        # degenerate one-core spec (the in-study no-contention baseline),
        # the other two with one mcf neighbour each.
        assert all(job.multicore is not None for job in jobs)
        solo = [job for job in jobs if job.multicore.num_cores == 1]
        paired = [job for job in jobs if job.multicore.num_cores == 2]
        assert len(solo) == len(jobs) // 3
        assert len(paired) == 2 * len(solo)
