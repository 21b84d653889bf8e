"""Unit tests for the memory substrate: caches, MSHRs, DRAM, prefetchers, hierarchy."""

import pytest

from repro.memory.cache import CacheConfig, SetAssociativeCache
from repro.memory.dram import DRAMConfig, DRAMModel
from repro.memory.hierarchy import HierarchyConfig, MemoryLevel, PrivateHierarchy
from repro.memory.mshr import MSHRFile
from repro.memory.prefetcher import NextLinePrefetcher, StridePrefetcher


class TestCache:
    def make(self, size=1024, assoc=2, latency=3):
        return SetAssociativeCache(CacheConfig("T", size, assoc, latency=latency))

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            CacheConfig("bad", 0, 1)
        with pytest.raises(ValueError):
            CacheConfig("bad", 1000, 3)  # not a multiple of assoc * line

    def test_miss_then_hit_after_fill(self):
        cache = self.make()
        assert not cache.lookup(0x1000)
        cache.fill(0x1000)
        assert cache.lookup(0x1000)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_same_line_hits(self):
        cache = self.make()
        cache.fill(0x1000)
        assert cache.lookup(0x1000 + 63)
        assert not cache.lookup(0x1000 + 64)

    def test_lru_eviction_order(self):
        cache = self.make(size=2 * 64, assoc=2)  # one set, two ways
        cache.fill(0 * 64)
        cache.fill(1 * 64)
        cache.lookup(0 * 64)  # make line 0 MRU
        cache.fill(2 * 64)  # evicts line 1 (LRU)
        assert cache.contains(0 * 64)
        assert not cache.contains(1 * 64)
        assert cache.contains(2 * 64)

    def test_dirty_eviction_reports_writeback(self):
        cache = self.make(size=2 * 64, assoc=2)
        cache.fill(0 * 64, dirty=True)
        cache.fill(1 * 64)
        writeback = cache.fill(2 * 64)
        assert writeback == 0
        assert cache.stats.writebacks == 1

    def test_write_hit_marks_dirty(self):
        cache = self.make(size=2 * 64, assoc=2)
        cache.fill(0 * 64)
        cache.lookup(0 * 64, is_write=True)
        cache.fill(1 * 64)
        writeback = cache.fill(2 * 64)
        assert writeback == 0 * 64

    def test_invalidate(self):
        cache = self.make()
        cache.fill(0x2000)
        assert cache.invalidate(0x2000)
        assert not cache.invalidate(0x2000)
        assert not cache.contains(0x2000)

    def test_resident_lines(self):
        cache = self.make()
        for i in range(5):
            cache.fill(i * 64)
        assert cache.resident_lines() == 5


class TestMSHR:
    def test_allocate_and_expire(self):
        mshrs = MSHRFile(num_entries=2)
        assert mshrs.allocate(0, completion_cycle=100, cycle=0)
        assert mshrs.occupancy(0) == 1
        assert mshrs.occupancy(100) == 0

    def test_merge_same_line(self):
        mshrs = MSHRFile(num_entries=1)
        mshrs.allocate(128, completion_cycle=50, cycle=0)
        assert mshrs.allocate(128 + 8, completion_cycle=60, cycle=10)  # same line merges
        entry = mshrs.merge(128, cycle=10)
        assert entry is not None and entry.completion_cycle == 50
        assert mshrs.merge(4096, cycle=10) is None

    def test_full_rejection(self):
        mshrs = MSHRFile(num_entries=1)
        mshrs.allocate(0, completion_cycle=100, cycle=0)
        assert not mshrs.allocate(4096, completion_cycle=100, cycle=0)
        assert mshrs.stats.full_rejections == 1
        assert mshrs.is_full(0)
        assert not mshrs.is_full(100)

    def test_outstanding_completion(self):
        mshrs = MSHRFile(num_entries=4)
        mshrs.allocate(64, completion_cycle=40, cycle=0)
        assert mshrs.outstanding_completion(64, 10) == 40
        assert mshrs.outstanding_completion(4096, 10) is None


class TestDRAM:
    def test_row_hit_is_faster_than_row_miss(self):
        dram = DRAMModel()
        first = dram.access(0, cycle=0)
        dram2 = DRAMModel()
        dram2.access(0, cycle=0)
        # Second access to the same page at a later time is a row hit.
        hit_latency = dram2.access(8, cycle=1000)
        assert hit_latency < first

    def test_bank_queueing_delays_back_to_back_row_misses(self):
        dram = DRAMModel()
        config = dram.config
        base_bank, base_row = dram._bank_and_row(0)
        conflict_addr = next(
            page * config.page_bytes
            for page in range(1, 10_000)
            if dram._bank_and_row(page * config.page_bytes)[0] == base_bank
            and dram._bank_and_row(page * config.page_bytes)[1] != base_row
        )
        base = dram.access(0, cycle=0)
        # Same bank, different row, issued immediately after: pays queue delay.
        second = dram.access(conflict_addr, cycle=1)
        assert second > base

    def test_stats_and_reset(self):
        dram = DRAMModel()
        dram.access(0, 0)
        dram.access(0, 500, is_write=True)
        assert dram.stats.reads == 1
        assert dram.stats.writes == 1
        assert dram.stats.accesses == 2
        assert dram.stats.read_latency_cycles > 0
        dram.reset()
        assert dram.stats.accesses == 0

    def test_core_cycle_conversion(self):
        config = DRAMConfig()
        assert config.to_core_cycles(1) >= 3  # 2.66 GHz core vs 800 MHz bus
        assert config.to_core_cycles(0) == 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DRAMConfig(num_banks=0)


class TestPrefetchers:
    def test_next_line(self):
        prefetcher = NextLinePrefetcher(degree=2)
        targets = prefetcher.train(0x400, 0x1000)
        assert targets == [0x1040, 0x1080]

    def test_stride_needs_confidence(self):
        prefetcher = StridePrefetcher(degree=1, confidence_threshold=2)
        assert prefetcher.train(0x400, 0x1000) == []
        assert prefetcher.train(0x400, 0x1040) == []
        assert prefetcher.train(0x400, 0x1080) == []
        targets = prefetcher.train(0x400, 0x10C0)
        assert targets == [0x1100]

    def test_stride_table_eviction(self):
        prefetcher = StridePrefetcher(table_entries=2)
        for pc in (1, 2, 3):
            prefetcher.train(pc, 0x1000)
        assert len(prefetcher._table) <= 2


class TestHierarchy:
    def test_cold_miss_goes_to_dram(self):
        hierarchy = PrivateHierarchy()
        result = hierarchy.access_data(0x100000, cycle=0)
        assert result.level is MemoryLevel.DRAM
        assert result.is_long_latency
        assert result.latency > 100

    def test_hit_after_fill_is_l1_latency(self):
        hierarchy = PrivateHierarchy()
        first = hierarchy.access_data(0x100000, cycle=0)
        later = hierarchy.access_data(0x100000, cycle=first.latency + 1)
        assert later.level is MemoryLevel.L1D
        assert later.latency == hierarchy.config.l1d.latency

    def test_access_before_fill_completes_merges_inflight(self):
        hierarchy = PrivateHierarchy()
        first = hierarchy.access_data(0x200000, cycle=0)
        second = hierarchy.access_data(0x200000, cycle=10)
        assert second.level is MemoryLevel.INFLIGHT
        assert second.latency <= first.latency
        assert second.is_long_latency

    def test_l2_hit_after_l1_eviction(self):
        hierarchy = PrivateHierarchy()
        base = 0x300000
        first = hierarchy.access_data(base, cycle=0)
        # Evict the line from L1 by filling its set with conflicting lines.
        sets = hierarchy.config.l1d.num_sets
        for way in range(hierarchy.config.l1d.associativity + 1):
            hierarchy.access_data(base + (way + 1) * sets * 64, cycle=1000 + way * 400)
        result = hierarchy.access_data(base, cycle=10_000)
        assert result.level in (MemoryLevel.L2, MemoryLevel.L3)
        assert result.latency < first.latency

    def test_prefetch_reserve_blocks_prefetches_first(self):
        config = HierarchyConfig(mshr_entries=4, mshr_demand_reserve=2)
        hierarchy = PrivateHierarchy(config)
        # Two outstanding prefetches reach the prefetch limit (4 - 2 = 2).
        assert not hierarchy.access_data(0x1000000, 0, is_prefetch=True).retried
        assert not hierarchy.access_data(0x2000000, 0, is_prefetch=True).retried
        assert hierarchy.access_data(0x3000000, 0, is_prefetch=True).retried
        # Demand misses may still use the reserved entries.
        assert not hierarchy.access_data(0x4000000, 0).retried

    def test_instruction_access_fills_l1i(self):
        hierarchy = PrivateHierarchy()
        first = hierarchy.access_instruction(0x400000, cycle=0)
        second = hierarchy.access_instruction(0x400000, cycle=1000)
        assert first.latency > second.latency
        assert second.level is MemoryLevel.L1I

    def test_warm_preloads_lines(self):
        hierarchy = PrivateHierarchy()
        hierarchy.warm([0x500000])
        result = hierarchy.access_data(0x500000, cycle=0)
        assert result.level is MemoryLevel.L1D

    def test_unknown_prefetcher_rejected(self):
        with pytest.raises(ValueError):
            PrivateHierarchy(HierarchyConfig(prefetcher="magic"))

    def test_stride_prefetcher_installs_future_lines(self):
        hierarchy = PrivateHierarchy(HierarchyConfig(prefetcher="stride"))
        cycle = 0
        for i in range(6):
            hierarchy.access_data(0x600000 + i * 64, cycle=cycle, pc=0x400)
            cycle += 400
        assert hierarchy.stats.prefetch_accesses >= 0
        # After training, the next line should already be resident or in flight.
        result = hierarchy.access_data(0x600000 + 6 * 64, cycle=cycle)
        assert result.level in (MemoryLevel.L1D, MemoryLevel.INFLIGHT)
