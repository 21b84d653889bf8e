"""Unit tests for the core's pipeline structures (RF, RAT, ROB, IQ, LSQ, branch, frontend)."""

import pytest
from hypothesis import given, settings, strategies as st

from pathlib import Path

from repro.core import VARIANTS, build_controller
from repro.registry import build_workload
from repro.simulation.golden import DEFAULT_GOLDEN_PATH, cell_key, load_goldens, stats_digest
from repro.uarch.branch import GShareBranchPredictor
from repro.uarch.config import CoreConfig
from repro.uarch.core import DynInstr, OoOCore
from repro.uarch.frontend import FrontEnd
from repro.uarch.issue_queue import IssueQueue
from repro.uarch.lsq import LoadStoreQueues
from repro.uarch.regfile import OutOfPhysicalRegisters, PhysicalRegisterFile
from repro.uarch.rename import RegisterAliasTable, RetirementRAT
from repro.uarch.rob import ReorderBuffer
from repro.uarch.stats import CoreStats
from repro.workloads.generators import strided_stream
from repro.workloads.trace import FP_REG_BASE, MicroOp, UopClass


GOLDEN_FILE = Path(__file__).resolve().parent.parent / DEFAULT_GOLDEN_PATH


def make_instr(seq, uop_class=UopClass.IALU, pc=None, dst=1, srcs=(), addr=None):
    uop = MicroOp(
        pc=pc if pc is not None else 0x400000 + 4 * seq,
        uop_class=uop_class,
        srcs=srcs,
        dst=dst,
        mem_addr=addr,
    )
    return DynInstr(uop=uop, seq=seq)


class TestPhysicalRegisterFile:
    def test_initial_free_count(self):
        rf = PhysicalRegisterFile(168)
        assert rf.num_free == 168 - 32
        assert rf.free_fraction == pytest.approx((168 - 32) / 168)

    def test_allocate_free_cycle(self):
        rf = PhysicalRegisterFile(40)
        reg = rf.allocate()
        assert rf.is_allocated(reg)
        assert not rf.is_ready(reg)
        rf.set_ready(reg)
        assert rf.is_ready(reg)
        rf.free(reg)
        assert not rf.is_allocated(reg)

    def test_double_free_rejected(self):
        rf = PhysicalRegisterFile(40)
        reg = rf.allocate()
        rf.free(reg)
        with pytest.raises(ValueError):
            rf.free(reg)

    def test_exhaustion_raises(self):
        rf = PhysicalRegisterFile(34)
        rf.allocate()
        rf.allocate()
        with pytest.raises(OutOfPhysicalRegisters):
            rf.allocate()

    def test_rebuild_restores_free_list(self):
        rf = PhysicalRegisterFile(40)
        for _ in range(6):
            rf.allocate()
        rf.rebuild(set(range(32)))
        assert rf.num_free == 8
        assert all(rf.is_ready(reg) for reg in range(32))


class TestRAT:
    def test_initial_mapping_is_identity_per_bank(self):
        rat = RegisterAliasTable()
        assert rat.physical(0) == 0
        assert rat.physical(FP_REG_BASE) == 0
        assert rat.physical(FP_REG_BASE + 5) == 5

    def test_rename_records_producer_pc(self):
        rat = RegisterAliasTable()
        previous = rat.rename(3, physical=77, producer_pc=0x400010)
        assert previous.physical == 3
        assert rat.physical(3) == 77
        assert rat.producer_pc(3) == 0x400010

    def test_checkpoint_restore(self):
        rat = RegisterAliasTable()
        checkpoint = rat.checkpoint()
        rat.rename(1, 50, 0x1000)
        rat.rename(2, 51, 0x1004)
        rat.restore(checkpoint)
        assert rat.physical(1) == 1
        assert rat.physical(2) == 2
        assert rat.producer_pc(1) is None

    def test_live_physicals_by_bank(self):
        rat = RegisterAliasTable()
        rat.rename(0, 99, 0x0)
        assert 99 in rat.live_physicals(fp=False)
        assert 99 not in rat.live_physicals(fp=True)

    def test_retirement_rat_commit_and_checkpoint(self):
        retire = RetirementRAT()
        old = retire.commit(4, 88)
        assert old == 4
        assert retire.physical(4) == 88
        checkpoint = retire.to_checkpoint()
        assert checkpoint.entries[4].physical == 88


class TestROB:
    def test_fifo_order_and_capacity(self):
        rob = ReorderBuffer(capacity=4)
        for seq in range(4):
            rob.push(make_instr(seq))
        assert rob.is_full
        with pytest.raises(OverflowError):
            rob.push(make_instr(99))
        assert rob.pop_head().seq == 0
        assert len(rob) == 3

    def test_find_other_instance(self):
        rob = ReorderBuffer()
        rob.push(make_instr(0, pc=0x100))
        rob.push(make_instr(1, pc=0x200))
        rob.push(make_instr(2, pc=0x100))
        found = rob.find_other_instance(0x100, exclude_seq=0)
        assert found is not None and found.seq == 2
        assert rob.find_other_instance(0x300, exclude_seq=0) is None

    def test_entries_before_sorted_youngest_first(self):
        rob = ReorderBuffer()
        for seq in range(5):
            rob.push(make_instr(seq))
        older = rob.entries_before(3)
        assert [instr.seq for instr in older] == [2, 1, 0]

    def test_clear_returns_entries(self):
        rob = ReorderBuffer()
        rob.push(make_instr(0))
        discarded = rob.clear()
        assert len(discarded) == 1
        assert rob.is_empty


def no_poison(instr):
    return False


def select(iq, cycle, width=4, ready=(True,) * 4, max_loads=2, max_stores=1):
    """``select_ready`` with nothing poisoned; ``ready`` serves both banks."""
    ready = list(ready)
    return iq.select_ready(cycle, width, ready, ready, max_loads, max_stores, set(), no_poison)


def reference_select(
    entries, cycle, width, int_ready, fp_ready, max_loads, max_stores, poisoned, poison_ok
):
    """The readiness rule tested operand by operand on every entry: no parking."""
    selected = []
    loads = stores = 0
    for instr in sorted(entries, key=lambda entry: entry.seq):
        if instr.earliest_issue_cycle > cycle:
            continue
        if (instr.is_load and loads >= max_loads) or (instr.is_store and stores >= max_stores):
            continue
        if not all(
            (fp_ready if is_fp else int_ready)[preg]
            or ((is_fp, preg) in poisoned and poison_ok(instr))
            for is_fp, preg in instr.src_ops
        ):
            continue
        selected.append(instr)
        if len(selected) >= width:
            break
        loads += instr.is_load
        stores += instr.is_store
    return selected


def wake_turned_ready(iq, before, after):
    """Wake every operand that turned ready between two ``select_ready`` calls.

    ``before``/``after`` are ``(int_ready, fp_ready, poisoned)``: an operand
    whose ready bit turned on or that joined ``poisoned`` may have unblocked
    the entries parked on it, which is when the core wakes it.
    """
    for is_fp, preg in ALL_OPERANDS:
        bank = 1 if is_fp else 0
        if (after[bank][preg] and not before[bank][preg]) or (
            (is_fp, preg) in after[2] and (is_fp, preg) not in before[2]
        ):
            iq.wake(is_fp, preg)


#: Few registers per bank, so operands collide and parked entries get woken.
NUM_PREGS = 2
OPERANDS = st.tuples(st.booleans(), st.integers(0, NUM_PREGS - 1))
BITS = st.lists(st.booleans(), min_size=NUM_PREGS, max_size=NUM_PREGS)
ALL_OPERANDS = [(is_fp, preg) for is_fp in (False, True) for preg in range(NUM_PREGS)]
POISONED = st.lists(
    st.booleans(), min_size=len(ALL_OPERANDS), max_size=len(ALL_OPERANDS)
).map(lambda bits: {op for op, bit in zip(ALL_OPERANDS, bits) if bit})

ENTRY = st.fixed_dictionaries(
    {
        "kind": st.sampled_from([UopClass.IALU, UopClass.LOAD, UopClass.STORE]),
        "src_ops": st.lists(OPERANDS, max_size=3),
        "earliest": st.integers(0, 2),
        "runahead": st.booleans(),
    }
)

CALL = st.fixed_dictionaries(
    {
        "cycle": st.integers(0, 3),
        "width": st.integers(1, 4),
        "int_ready": BITS,
        "fp_ready": BITS,
        "max_loads": st.integers(0, 2),
        "max_stores": st.integers(0, 2),
        "poisoned": POISONED,
        "remove_selected": st.booleans(),
    }
)

#: Who may consume a poisoned operand: nobody (nothing is poisoned), every
#: instruction (traditional runahead), or runahead micro-ops only (PRE).
POLICIES = {
    "none": no_poison,
    "ra": lambda instr: True,
    "pre": lambda instr: instr.runahead,
}


class TestIssueQueue:
    def test_select_oldest_first_with_width(self):
        iq = IssueQueue(capacity=8)
        for seq in (5, 1, 3):
            instr = make_instr(seq)
            instr.earliest_issue_cycle = 0
            iq.insert(instr)
        picked = select(iq, 0, width=2)
        assert [instr.seq for instr in picked] == [1, 3]

    def test_port_limits(self):
        iq = IssueQueue()
        for seq in range(4):
            instr = make_instr(seq, uop_class=UopClass.LOAD, addr=64 * seq, dst=1)
            instr.earliest_issue_cycle = 0
            iq.insert(instr)
        picked = select(iq, 0, width=4, max_loads=2)
        assert len(picked) == 2

    def test_not_ready_filtered(self):
        iq = IssueQueue()
        instr = make_instr(0)
        instr.src_ops = ((False, 1),)
        instr.earliest_issue_cycle = 0
        iq.insert(instr)
        assert select(iq, 0, ready=(True, False, True, True)) == []
        iq.wake(False, 1)  # p1's ready bit turned on
        assert select(iq, 0) == [instr]

    def test_parked_entry_waits_for_its_operand_wake(self):
        iq = IssueQueue()
        instr = make_instr(0)
        instr.src_ops = ((False, 1), (True, 0))
        instr.earliest_issue_cycle = 0
        iq.insert(instr)
        assert select(iq, 0, ready=(True, False, False, True)) == []
        assert len(iq) == 1
        # Parked on its first not-ready operand: select skips it until that
        # operand wakes, and a wake of another operand does not unpark it.
        iq.wake(True, 0)
        assert select(iq, 0) == []
        iq.wake(False, 1)
        assert select(iq, 0) == [instr]
        iq.remove(instr)
        assert len(iq) == 0

    def test_earliest_issue_cycle_respected(self):
        iq = IssueQueue()
        instr = make_instr(0)
        instr.earliest_issue_cycle = 10
        iq.insert(instr)
        assert select(iq, 5) == []
        assert select(iq, 10) == [instr]

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @settings(max_examples=150, deadline=None)
    @given(
        entries=st.lists(ENTRY, min_size=1, max_size=8),
        order=st.randoms(use_true_random=False),
        calls=st.lists(CALL, min_size=2, max_size=8),
    )
    def test_select_ready_matches_memo_free_reference(self, policy, entries, order, calls):
        poison_ok = POLICIES[policy]
        seqs = list(range(len(entries)))
        order.shuffle(seqs)  # out-of-order inserts exercise the lazy sort
        iq = IssueQueue(capacity=len(entries))
        previous = None
        for seq, entry in zip(seqs, entries):
            kind = entry["kind"]
            instr = make_instr(
                seq,
                uop_class=kind,
                dst=None if kind is UopClass.STORE else 1,
                addr=64 * seq if kind is not UopClass.IALU else None,
            )
            instr.src_ops = tuple(entry["src_ops"])
            instr.earliest_issue_cycle = entry["earliest"]
            instr.runahead = entry["runahead"]
            iq.insert(instr)
        for call in calls:
            poisoned = set() if policy == "none" else call["poisoned"]
            current = (call["int_ready"], call["fp_ready"], poisoned)
            if previous is not None:
                wake_turned_ready(iq, previous, current)
            previous = current
            args = (
                call["cycle"], call["width"], call["int_ready"], call["fp_ready"],
                call["max_loads"], call["max_stores"], poisoned, poison_ok,
            )
            expected = reference_select(list(iq), *args)
            picked = iq.select_ready(*args)
            assert picked == expected
            if call["remove_selected"]:
                for instr in picked:
                    iq.remove(instr)

    def test_squash_predicate(self):
        iq = IssueQueue()
        normal = make_instr(0)
        runahead = make_instr(1)
        runahead.runahead = True
        iq.insert(normal)
        iq.insert(runahead)
        removed = iq.squash(lambda i: i.runahead)
        assert removed == [runahead]
        assert len(iq) == 1

    def test_overflow(self):
        iq = IssueQueue(capacity=1)
        iq.insert(make_instr(0))
        with pytest.raises(OverflowError):
            iq.insert(make_instr(1))


class CheckedIssueQueue(IssueQueue):
    """An issue queue that checks every event-driven select against
    :func:`reference_select` over all its entries, and counts the parked
    entries that squashes and flushes dropped."""

    __slots__ = ("selects", "dropped_parked")

    def __init__(self, capacity):
        super().__init__(capacity)
        self.selects = 0
        self.dropped_parked = 0

    def select_ready(self, *args):
        expected = reference_select(list(self), *args)
        picked = super().select_ready(*args)
        assert picked == expected
        self.selects += 1
        return picked

    def parked(self):
        return sum(len(waiters) for bank in self._parked for waiters in bank.values())

    def squash(self, predicate):
        before = self.parked()
        removed = super().squash(predicate)
        self.dropped_parked += before - self.parked()
        return removed

    def clear(self):
        self.dropped_parked += self.parked()
        return super().clear()


class TestIssueQueueOnRealRuns:
    """Waiter lists against the full scan on whole runs, through what the
    unit tests cannot reach: the writeback, INV pseudo-retire and poisoned
    issue wakes, PRE's exit squash and RA's flush.  (PRE's entry also wakes,
    but only window micro-ops wait there then, and PRE lets none of them
    consume poison, so that wake changes no select.)"""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_every_select_matches_the_full_scan(self, variant):
        goldens = load_goldens(GOLDEN_FILE)
        dropped_parked = 0
        for workload in ("mcf", "bwaves"):
            trace = build_workload(workload, num_uops=goldens["num_uops"])
            core = OoOCore(trace, controller=build_controller(variant))
            checked = core.iq = CheckedIssueQueue(core.config.issue_queue_size)
            stats = core.run()
            assert checked.selects > 0
            golden = goldens["cells"][cell_key(workload, variant)]["digest"]
            assert stats_digest(stats) == golden, workload
            dropped_parked += checked.dropped_parked
        if variant in ("runahead", "pre", "pre_emq"):
            # RA's flushes and PRE's exit squashes dropped parked entries.
            assert dropped_parked > 0


class TestLSQ:
    def test_occupancy_and_release(self):
        lsq = LoadStoreQueues(load_entries=2, store_entries=1)
        load = make_instr(0, UopClass.LOAD, addr=64, dst=1)
        store = make_instr(1, UopClass.STORE, addr=64, dst=None, srcs=(1,))
        lsq.dispatch(load)
        lsq.dispatch(store)
        assert lsq.load_occupancy == 1
        assert lsq.store_queue_full
        lsq.release(load)
        lsq.release(store)
        assert lsq.load_occupancy == 0

    def test_store_to_load_forwarding_youngest_older_store(self):
        lsq = LoadStoreQueues()
        store_a = make_instr(1, UopClass.STORE, addr=128, dst=None, srcs=(1,))
        store_b = make_instr(3, UopClass.STORE, addr=128, dst=None, srcs=(1,))
        load = make_instr(5, UopClass.LOAD, addr=128, dst=2)
        lsq.dispatch(store_a)
        lsq.dispatch(store_b)
        assert lsq.forwarding_store(load) is store_b
        younger_load = make_instr(2, UopClass.LOAD, addr=128, dst=2)
        assert lsq.forwarding_store(younger_load) is store_a

    def test_no_forwarding_for_different_address(self):
        lsq = LoadStoreQueues()
        lsq.dispatch(make_instr(1, UopClass.STORE, addr=256, dst=None, srcs=(1,)))
        load = make_instr(2, UopClass.LOAD, addr=512, dst=2)
        assert lsq.forwarding_store(load) is None


class TestBranchPredictor:
    def test_learns_always_taken(self):
        predictor = GShareBranchPredictor(table_entries=256, history_bits=8)
        pc = 0x400100
        for _ in range(8):
            prediction = predictor.predict(pc)
            predictor.update(pc, taken=True, predicted=prediction)
        assert predictor.predict(pc) is True
        assert predictor.stats.accuracy > 0.5

    def test_table_size_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            GShareBranchPredictor(table_entries=100)


class TestFrontEnd:
    def _frontend(self, num_uops=200):
        trace = strided_stream(num_uops=num_uops)
        config = CoreConfig()
        predictor = GShareBranchPredictor()
        return FrontEnd(trace, config, predictor, port=None, stats=CoreStats()), trace

    def test_delivers_after_pipeline_depth(self):
        frontend, _ = self._frontend()
        frontend.tick(0)
        assert len(frontend.uop_queue) == 0
        for cycle in range(1, CoreConfig().frontend_depth + 1):
            frontend.tick(cycle)
        assert len(frontend.uop_queue) > 0

    def test_pop_preserves_order(self):
        frontend, _ = self._frontend()
        for cycle in range(0, 20):
            frontend.tick(cycle)
        popped = [frontend.uop_queue.popleft() for _ in range(3)]
        assert [entry.seq for entry in popped] == [0, 1, 2]
        assert frontend.uop_queue[0].seq == 3

    def test_redirect_flushes_and_restarts(self):
        frontend, _ = self._frontend()
        for cycle in range(0, 20):
            frontend.tick(cycle)
        frontend.redirect(5, cycle=20)
        assert len(frontend.uop_queue) == 0
        assert frontend.fetch_index == 5
        assert frontend.next_dispatch_seq() == 5

    def test_power_gating_stops_fetch(self):
        frontend, _ = self._frontend()
        frontend.power_gated = True
        moved = sum(frontend.tick(cycle) for cycle in range(10))
        assert moved == 0

    def test_trace_exhaustion(self):
        frontend, trace = self._frontend(num_uops=30)
        for cycle in range(200):
            frontend.tick(cycle)
            frontend.uop_queue.clear()
        assert frontend.trace_exhausted
        assert frontend.next_dispatch_seq() is None
