"""Unit tests for the paper's hardware structures: SST, PRDQ, EMQ."""

import pytest

from repro.core.emq import ExtendedMicroOpQueue
from repro.core.prdq import PreciseRegisterDeallocationQueue
from repro.core.sst import StallingSliceTable
from repro.uarch.core import DynInstr
from repro.uarch.frontend import FetchedUop
from repro.workloads.trace import MicroOp, UopClass


def make_instr(seq, dst=1):
    uop = MicroOp(pc=0x400000 + 4 * seq, uop_class=UopClass.IALU, dst=dst)
    return DynInstr(uop=uop, seq=seq, runahead=True)


class TestSST:
    def test_insert_then_hit(self):
        sst = StallingSliceTable(capacity=4)
        assert not sst.lookup(0x400000)
        sst.insert(0x400000)
        assert sst.lookup(0x400000)
        assert sst.stats.hits == 1
        assert sst.stats.lookups == 2

    def test_capacity_and_lru_eviction(self):
        sst = StallingSliceTable(capacity=2)
        sst.insert(0x1)
        sst.insert(0x2)
        sst.lookup(0x1)  # make 0x1 most recently used
        evicted = sst.insert(0x3)
        assert evicted == 0x2
        assert sst.contains(0x1)
        assert not sst.contains(0x2)
        assert len(sst) == 2

    def test_reinsert_does_not_duplicate(self):
        sst = StallingSliceTable(capacity=4)
        sst.insert(0x10)
        sst.insert(0x10)
        assert len(sst) == 1
        assert sst.stats.inserts == 1

    def test_storage_matches_paper(self):
        # Section 3.6: 256 entries with 4-byte tags = 1 KB of storage.
        assert StallingSliceTable(capacity=256).storage_bytes == 1024

    def test_pcs_and_clear(self):
        sst = StallingSliceTable(capacity=4)
        for pc in (1, 2, 3):
            sst.insert(pc)
        assert sst.pcs() == [1, 2, 3]
        sst.clear()
        assert len(sst) == 0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            StallingSliceTable(capacity=0)


class TestPRDQ:
    def test_in_order_deallocation_requires_execution(self):
        prdq = PreciseRegisterDeallocationQueue(capacity=4)
        first = make_instr(0)
        second = make_instr(1)
        prdq.allocate(first, old_preg=10, old_is_fp=False, reclaim_old=True)
        prdq.allocate(second, old_preg=11, old_is_fp=False, reclaim_old=True)
        freed = []
        # The younger instruction executes first: nothing deallocates yet
        # because the head entry has not executed.
        prdq.mark_executed(second)
        assert prdq.deallocate_ready(lambda fp, reg: freed.append(reg)) == 0
        prdq.mark_executed(first)
        assert prdq.deallocate_ready(lambda fp, reg: freed.append(reg)) == 2
        assert freed == [10, 11]

    def test_non_reclaimable_old_mapping_not_freed(self):
        prdq = PreciseRegisterDeallocationQueue(capacity=2)
        instr = make_instr(0)
        prdq.allocate(instr, old_preg=5, old_is_fp=False, reclaim_old=False)
        prdq.mark_executed(instr)
        freed = []
        assert prdq.deallocate_ready(lambda fp, reg: freed.append(reg)) == 1
        assert freed == []

    def test_overflow_raises_and_counts(self):
        prdq = PreciseRegisterDeallocationQueue(capacity=1)
        prdq.allocate(make_instr(0), old_preg=None, old_is_fp=None, reclaim_old=False)
        with pytest.raises(OverflowError):
            prdq.allocate(make_instr(1), old_preg=None, old_is_fp=None, reclaim_old=False)
        assert prdq.stats.stalls_full == 1

    def test_clear_discards_entries(self):
        prdq = PreciseRegisterDeallocationQueue(capacity=4)
        prdq.allocate(make_instr(0), old_preg=1, old_is_fp=False, reclaim_old=True)
        discarded = prdq.clear()
        assert len(discarded) == 1
        assert len(prdq) == 0

    def test_storage_matches_paper(self):
        # Section 3.6: 192 entries for a total of 768 bytes.
        assert PreciseRegisterDeallocationQueue(capacity=192).storage_bytes == 768

    def test_mark_executed_unknown_instr(self):
        prdq = PreciseRegisterDeallocationQueue()
        assert not prdq.mark_executed(make_instr(7))


class TestEMQ:
    def _entry(self, seq):
        uop = MicroOp(pc=0x400000 + 4 * seq, uop_class=UopClass.IALU, dst=1)
        return FetchedUop(seq=seq, uop=uop, ready_cycle=0)

    def test_fifo_drain_order(self):
        emq = ExtendedMicroOpQueue(capacity=4)
        for seq in range(3):
            emq.append(self._entry(seq))
        drained = emq.drain()
        assert [entry.seq for entry in drained] == [0, 1, 2]
        assert emq.is_empty
        assert emq.stats.drained == 3

    def test_full_raises_and_counts(self):
        emq = ExtendedMicroOpQueue(capacity=1)
        emq.append(self._entry(0))
        assert emq.is_full
        with pytest.raises(OverflowError):
            emq.append(self._entry(1))
        assert emq.stats.stalls_full == 1

    def test_storage_matches_paper(self):
        # Section 3.6: a 768-entry EMQ adds about 3 KB.
        assert ExtendedMicroOpQueue(capacity=768).storage_bytes == 3072

    def test_clear_does_not_count_as_drained(self):
        emq = ExtendedMicroOpQueue(capacity=4)
        emq.append(self._entry(0))
        emq.clear()
        assert emq.stats.drained == 0
        assert emq.is_empty


class TestRunaheadBufferStorage:
    @pytest.mark.parametrize("chain_length", [32, 16, 4])
    def test_attach_picks_up_core_config(self, chain_length):
        from repro.core import build_core
        from repro.uarch.config import CoreConfig
        from repro.workloads.spec_surrogates import build_surrogate

        assert CoreConfig().runahead_buffer_chain_length == 32
        trace = build_surrogate("milc", num_uops=200)
        core = build_core(
            trace,
            variant="runahead_buffer",
            config=CoreConfig(runahead_buffer_chain_length=chain_length),
        )
        # Eight bytes per chain micro-op; tiny chains still get the minimum
        # 64-byte SRAM macro.
        expected = {32: 32 * 8, 16: 16 * 8, 4: 64}[chain_length]
        assert core.controller.storage_bytes == expected
