"""Regression and property tests for the fill-on-completion memory hierarchy.

Each regression test pins one of the bugs fixed by the transaction rewrite and
fails on the pre-fix model:

* dirty L1D/L2 victims used to be dropped instead of written back level by
  level (undercounting writebacks and DRAM write energy);
* the hardware prefetcher used to check only ``mshrs.is_full``, bypassing the
  demand reserve and starving demand misses;
* DRAM writebacks used to be issued at ``cycle=0``, poisoning the latency
  statistics with a fake queue delay that grew with simulated time;
* instruction fetches used to bypass the MSHRs entirely, so repeated fetches
  of one missing line each paid (and counted) a full DRAM access;
* lines used to be installed at *request* time, so residency and LRU state
  could observe the future.

The property tests check the two structural invariants of the rewrite: no
cache level reports a line resident before its fill's completion cycle, and
MSHR occupancy always equals the number of outstanding fill transactions.
"""

from hypothesis import given, settings, strategies as st

from repro.memory.cache import CacheConfig
from repro.memory.hierarchy import HierarchyConfig, MemoryLevel, PrivateHierarchy
from repro.uarch.core import OoOCore
from repro.workloads.generators import mixed_compute_memory, strided_stream
from repro.simulation.simulator import SimulationRequest, run_simulation


def tiny_hierarchy(**overrides) -> PrivateHierarchy:
    """A hierarchy with single-set caches so evictions are easy to force."""
    config = HierarchyConfig(
        l1i=CacheConfig("L1I", 2 * 64, 2, latency=1),
        l1d=CacheConfig("L1D", 2 * 64, 2, latency=2),
        l2=CacheConfig("L2", 4 * 64, 4, latency=4),
        l3=CacheConfig("L3", 8 * 64, 8, latency=8),
        **overrides,
    )
    return PrivateHierarchy(config)


def settle(hierarchy: PrivateHierarchy, cycle: int) -> int:
    """Drain fills due by ``cycle`` and return the cycle for chaining."""
    hierarchy.drain(cycle)
    return cycle


class TestWritebackPropagation:
    def test_dirty_l1d_victim_lands_in_next_level_and_cascades(self):
        hierarchy = tiny_hierarchy()
        victim = 0x0
        # Install the victim dirty in L1D only, then push it out with two
        # clean installs: the dirty line must move into L2, not vanish.
        hierarchy._install(hierarchy.l1d, victim, 0, dirty=True)
        hierarchy._install(hierarchy.l1d, 0x40, 0)
        hierarchy._install(hierarchy.l1d, 0x80, 0)
        assert not hierarchy.l1d.contains(victim)
        assert hierarchy.l2.contains(victim)
        assert hierarchy.stats.writebacks == 1
        # Push it out of L2: it must land in L3 (still dirty).
        for i in range(1, 5):
            hierarchy._install(hierarchy.l2, 0x40 * i, 0)
        assert not hierarchy.l2.contains(victim)
        assert hierarchy.l3.contains(victim)
        # And out of L3: the final hop is a DRAM write.
        writes_before = hierarchy.dram.stats.writes
        for i in range(1, 9):
            hierarchy._install(hierarchy.l3, 0x40 * i, 0)
        assert not hierarchy.l3.contains(victim)
        assert hierarchy.dram.stats.writes == writes_before + 1

    def test_store_traffic_reaches_dram_end_to_end(self):
        # Streams of committed stores through the public API must eventually
        # produce DRAM writes (pre-fix: dirty L1/L2 victims were dropped, so
        # only the rare dirty L3 victim ever reached DRAM).
        hierarchy = tiny_hierarchy()
        cycle = 0
        for i in range(32):
            hierarchy.access_data(i * 64, cycle, is_write=True)
            cycle += 600  # long enough for each fill to land
        hierarchy.drain(cycle)
        assert hierarchy.stats.writebacks > 0
        assert hierarchy.dram.stats.writes > 0

    def test_store_merging_with_inflight_fill_installs_dirty(self):
        hierarchy = tiny_hierarchy()
        line = 0x0
        first = hierarchy.access_data(line, 0, is_write=False)
        assert first.level is MemoryLevel.DRAM
        # A store to the same line while the fill is outstanding must dirty
        # the pending fill (pre-fix it merged and the dirty bit was lost).
        merged = hierarchy.access_data(line + 8, 10, is_write=True)
        assert merged.level is MemoryLevel.INFLIGHT
        cycle = settle(hierarchy, first.latency + 1)
        assert hierarchy.l1d.contains(line)
        hierarchy._install(hierarchy.l1d, 0x40, cycle)
        hierarchy._install(hierarchy.l1d, 0x80, cycle)
        assert hierarchy.l2.contains(line)
        assert hierarchy.stats.writebacks == 1


class TestStoreMergingWithIfetchFill:
    def test_store_merging_with_ifetch_fill_dirties_l1d_not_l1i(self):
        hierarchy = PrivateHierarchy()
        line = 0xA00000
        first = hierarchy.access_instruction(line, 0)
        assert first.level is MemoryLevel.DRAM
        # A store to the same line merges with the I-side fill; the returning
        # line must additionally install into L1D and carry the dirty bit
        # there — an instruction cache can never hold dirty data.
        merged = hierarchy.access_data(line + 16, 10, is_write=True)
        assert merged.level is MemoryLevel.INFLIGHT
        hierarchy.drain(first.latency + 1)
        assert hierarchy.l1i.contains(line)
        assert hierarchy.l1d.contains(line)
        assert not any(
            dirty for ways in hierarchy.l1i._sets.values() for dirty in ways.values()
        )
        assert any(
            dirty for ways in hierarchy.l1d._sets.values() for dirty in ways.values()
        )


class TestStoreCommitUnderMSHRPressure:
    def test_stores_are_not_dropped_when_mshrs_are_full(self):
        # With a tiny MSHR file, committed stores regularly find the file
        # full.  Commit must stall the store at the ROB head and retry when
        # an entry frees — not silently drop the write (losing the dirty bit
        # and undercounting writebacks) — and the run must still finish (the
        # stalled store contributes a wake-up candidate, so the idle-skip
        # loop cannot deadlock on fills it never scheduled).
        trace = mixed_compute_memory(num_uops=1_500, store_fraction=0.4)
        hierarchy = PrivateHierarchy(HierarchyConfig(mshr_entries=2, mshr_demand_reserve=1))
        core = OoOCore(trace, hierarchy=hierarchy)
        stats = core.run(max_cycles=2_000_000)
        assert core.finished
        expected_stores = sum(1 for uop in trace if uop.is_store)
        assert stats.committed_stores == expected_stores
        # Every committed store dirtied a line: write traffic must exist.
        assert hierarchy.stats.writebacks > 0 or any(
            dirty
            for ways in hierarchy.l1d._sets.values()
            for dirty in ways.values()
        )


class TestPrefetcherDemandReserve:
    def test_hardware_prefetch_cannot_take_reserved_entries(self):
        hierarchy = PrivateHierarchy(
            HierarchyConfig(mshr_entries=4, mshr_demand_reserve=2, prefetcher="nextline")
        )
        # Two demand misses fill the prefetch-eligible entries (4 - 2 = 2);
        # each also trains the next-line prefetcher, whose target must now be
        # rejected by the reserve (pre-fix: is_full() passed until all 4
        # entries were taken, letting prefetches starve demand misses).
        hierarchy.access_data(0x100000, 0, pc=0x400)
        hierarchy.access_data(0x200000, 0, pc=0x404)
        assert hierarchy.mshrs.lookup(0x200000 + 64, 0) is None
        assert hierarchy.prefetcher.stats.prefetches_dropped >= 1
        # A demand miss can still take a reserved entry (pre-fix, prefetches
        # had consumed all four entries by now and this demand was starved).
        assert not hierarchy.access_data(0x300000, 0).retried

    def test_runahead_prefetch_uses_same_limit(self):
        config = HierarchyConfig(mshr_entries=4, mshr_demand_reserve=2)
        hierarchy = PrivateHierarchy(config)
        assert not hierarchy.access_data(0x1000000, 0, is_prefetch=True).retried
        assert not hierarchy.access_data(0x2000000, 0, is_prefetch=True).retried
        assert hierarchy.access_data(0x3000000, 0, is_prefetch=True).retried
        assert not hierarchy.access_data(0x4000000, 0).retried


class TestDRAMWritebackTiming:
    def test_writeback_issues_at_real_cycle_not_zero(self):
        # Force a dirty line to reach DRAM late in the run: its recorded
        # write latency must be a normal access latency, not inflated by a
        # fake (bank_free_at - 0) queue delay that grows with simulated time
        # (pre-fix, writebacks were issued at cycle=0).
        hierarchy = tiny_hierarchy()
        cycle = 100_000
        for i in range(16):
            hierarchy.access_data(i * 64, cycle, is_write=True)
            cycle += 600
        hierarchy.drain(cycle)
        stats = hierarchy.dram.stats
        assert stats.writes > 0
        assert stats.average_write_latency < 2_000

    def test_read_and_write_latency_tracked_separately(self):
        hierarchy = tiny_hierarchy()
        hierarchy.access_data(0x0, 0)
        stats = hierarchy.dram.stats
        assert stats.reads == 1 and stats.writes == 0
        assert stats.read_latency_cycles > 0
        assert stats.write_latency_cycles == 0
        direct = hierarchy.dram.access(0x9000, 5_000, is_write=True)
        assert stats.write_latency_cycles == direct
        assert stats.average_write_latency == direct

    def test_write_queue_occupies_shared_bus(self):
        # A burst of posted writes must delay a subsequent read: writeback
        # traffic costs bandwidth instead of being free.
        quiet = PrivateHierarchy().dram
        baseline = quiet.access(0x0, 1_000)
        busy = PrivateHierarchy().dram
        for i in range(8):
            busy.access(0x100000 + i * 0x100000, 1_000, is_write=True)
        delayed = busy.access(0x0, 1_000)
        assert delayed > baseline
        assert busy.stats.write_queue_peak >= 2


class TestInstructionSideMLP:
    def test_repeated_fetches_of_missing_line_merge(self):
        hierarchy = PrivateHierarchy()
        pc = 0x700000
        first = hierarchy.access_instruction(pc, 0)
        assert first.level is MemoryLevel.DRAM
        # A second fetch of the same line while the fill is in flight merges
        # with the outstanding MSHR entry and pays only the remaining latency
        # (pre-fix: every fetch paid and counted a fresh DRAM access).
        second = hierarchy.access_instruction(pc + 8, 10)
        assert second.level is MemoryLevel.INFLIGHT
        assert second.latency <= first.latency
        assert hierarchy.dram.stats.reads == 1

    def test_instruction_misses_allocate_mshrs(self):
        hierarchy = PrivateHierarchy()
        assert hierarchy.mshrs.occupancy(0) == 0
        hierarchy.access_instruction(0x700000, 0)
        assert hierarchy.mshrs.occupancy(0) == 1

    def test_ifetch_waits_when_mshrs_full(self):
        hierarchy = PrivateHierarchy(HierarchyConfig(mshr_entries=2))
        hierarchy.access_data(0x100000, 0)
        hierarchy.access_data(0x200000, 0)
        result = hierarchy.access_instruction(0x300000, 1)
        assert result.retried
        assert result.latency >= 1  # wait estimate until an entry frees
        assert hierarchy.stats.mshr_stalls == 1

    def test_data_and_instruction_fills_share_one_miss_path(self):
        # An ifetch to a line with an outstanding *data* fill merges with it.
        hierarchy = PrivateHierarchy()
        addr = 0x800000
        hierarchy.access_data(addr, 0)
        result = hierarchy.access_instruction(addr, 5)
        assert result.level is MemoryLevel.INFLIGHT
        assert hierarchy.dram.stats.reads == 1


class TestFillOnCompletion:
    def test_line_not_resident_before_completion(self):
        hierarchy = PrivateHierarchy()
        addr = 0x900000
        result = hierarchy.access_data(addr, 0)
        completion = result.latency
        hierarchy.drain(completion - 1)
        for cache in (hierarchy.l1d, hierarchy.l2, hierarchy.l3):
            assert not cache.contains(addr)
        hierarchy.drain(completion)
        assert hierarchy.l1d.contains(addr)
        assert hierarchy.l2.contains(addr)
        assert hierarchy.l3.contains(addr)

    def test_hierarchy_has_no_shadow_inflight_dict(self):
        # The MSHR file is the single book of record for outstanding lines.
        hierarchy = PrivateHierarchy()
        assert not hasattr(hierarchy, "_inflight")


ACCESS_OPS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=63),  # line index (bounded range)
        st.integers(min_value=1, max_value=400),  # cycle gap to previous op
        st.sampled_from(["load", "store", "prefetch", "ifetch"]),
    ),
    min_size=1,
    max_size=60,
)


class TestHierarchyInvariants:
    @settings(max_examples=60, deadline=None)
    @given(ops=ACCESS_OPS)
    def test_no_early_residency_and_mshr_matches_outstanding_fills(self, ops):
        hierarchy = PrivateHierarchy(HierarchyConfig(mshr_entries=8, mshr_demand_reserve=2))
        cycle = 0
        outstanding = {}  # line address -> (completion cycle, innermost target)
        for line_index, gap, kind in ops:
            cycle += gap
            addr = 0x40_0000 + line_index * 4096  # spread across sets/banks
            hierarchy.drain(cycle)
            outstanding = {a: v for a, v in outstanding.items() if v[0] > cycle}
            if kind == "ifetch":
                result = hierarchy.access_instruction(addr, cycle)
                target = hierarchy.l1i
            else:
                result = hierarchy.access_data(
                    addr,
                    cycle,
                    is_write=(kind == "store"),
                    is_prefetch=(kind == "prefetch"),
                )
                target = hierarchy.l1d
            if not result.retried and result.level not in (
                MemoryLevel.L1D,
                MemoryLevel.L1I,
                MemoryLevel.INFLIGHT,
            ):
                outstanding[addr] = (cycle + result.latency, target)
            # Invariant 1: a fill's target L1 never reports the line resident
            # before the fill's completion cycle (other levels may hold the
            # line from earlier, unrelated fills).
            for pending_addr, (completion, pending_target) in outstanding.items():
                if completion > cycle:
                    assert not pending_target.contains(pending_addr), (
                        f"line {pending_addr:#x} resident in "
                        f"{pending_target.config.name} at cycle {cycle} "
                        f"before completion {completion}"
                    )
            # Invariant 2: MSHR occupancy equals the number of outstanding
            # fill transactions — the MSHR file is the only miss state.
            assert hierarchy.mshrs.occupancy(cycle) == len(hierarchy._fill_queue)
            assert hierarchy.mshrs.occupancy(cycle) == len(outstanding)


class TestProbeFillEvents:
    def test_mem_profile_reports_fills_and_writebacks(self):
        result = run_simulation(
            strided_stream(num_uops=2_000),
            SimulationRequest(variant="ooo", probes=["mem_profile"]),
        )
        report = result.probe_reports["mem_profile"]
        assert report["total"] == sum(report["levels"].values())
        assert sum(report["fills"].values()) > 0
        assert "L1D" in report["fills"]
