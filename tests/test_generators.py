"""Unit tests for the synthetic workload generators, surrogates and SimPoint sampler."""

import pytest

from repro.workloads.generators import (
    compute_kernel,
    linked_list_chase,
    mixed_compute_memory,
    multi_slice_kernel,
    random_access_kernel,
    strided_stream,
)
from repro.workloads.simpoint import SimPointSampler
from repro.workloads.spec_surrogates import (
    SPEC_SURROGATES,
    build_surrogate,
    surrogate_names,
    surrogate_suite,
)
from repro.workloads.trace import UopClass


ALL_GENERATORS = [
    linked_list_chase,
    strided_stream,
    multi_slice_kernel,
    random_access_kernel,
    mixed_compute_memory,
    compute_kernel,
]


class TestGenerators:
    @pytest.mark.parametrize("generator", ALL_GENERATORS)
    def test_respects_requested_length(self, generator):
        trace = generator(num_uops=600)
        assert 600 <= len(trace) <= 600 + 80  # may finish the current iteration

    @pytest.mark.parametrize("generator", ALL_GENERATORS)
    def test_deterministic(self, generator):
        first = generator(num_uops=400)
        second = generator(num_uops=400)
        assert len(first) == len(second)
        assert all(a == b for a, b in zip(first, second))

    def test_linked_list_chase_is_self_dependent(self):
        trace = linked_list_chase(num_uops=200)
        loads = [uop for uop in trace if uop.is_load]
        assert loads, "pointer chase must contain loads"
        # The chase load reads the register it writes: classic pointer chasing.
        assert all(uop.dst in uop.srcs for uop in loads)

    def test_linked_list_addresses_are_distinct_lines(self):
        trace = linked_list_chase(num_uops=800, num_nodes=4096)
        lines = [uop.mem_addr // 64 for uop in trace if uop.is_load]
        assert len(set(lines)) == len(lines)

    def test_strided_stream_single_load_pc(self):
        trace = strided_stream(num_uops=500)
        assert len(trace.pcs_of_class(UopClass.LOAD)) == 1

    def test_strided_stream_addresses_increase(self):
        trace = strided_stream(num_uops=500, element_bytes=8)
        addresses = trace.load_addresses()
        assert addresses == sorted(addresses)
        assert addresses[1] - addresses[0] == 8

    def test_multi_slice_has_one_load_pc_per_slice(self):
        trace = multi_slice_kernel(num_uops=1000, num_slices=4)
        assert len(trace.pcs_of_class(UopClass.LOAD)) == 4

    def test_multi_slice_clamps_slice_count(self):
        trace = multi_slice_kernel(num_uops=500, num_slices=64)
        assert len(trace.pcs_of_class(UopClass.LOAD)) <= 12

    def test_random_access_has_index_and_data_loads(self):
        trace = random_access_kernel(num_uops=600)
        assert len(trace.pcs_of_class(UopClass.LOAD)) == 2

    def test_mixed_kernel_contains_stores(self):
        trace = mixed_compute_memory(num_uops=2000, store_fraction=0.5)
        assert trace.stats().num_stores > 0

    def test_compute_kernel_has_no_memory_ops(self):
        stats = compute_kernel(num_uops=500).stats()
        assert stats.num_loads == 0
        assert stats.num_stores == 0

    def test_different_seeds_differ(self):
        first = random_access_kernel(num_uops=400, seed=1)
        second = random_access_kernel(num_uops=400, seed=2)
        assert first.load_addresses() != second.load_addresses()


class TestSurrogates:
    def test_suite_contains_paper_benchmarks(self):
        names = surrogate_names()
        for expected in ("mcf", "libquantum", "milc", "omnetpp", "soplex", "sphinx3"):
            assert expected in names

    def test_build_by_name_sets_trace_name(self):
        trace = build_surrogate("milc", num_uops=500)
        assert trace.name == "milc"
        assert len(trace) >= 500

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            build_surrogate("not-a-benchmark")

    def test_suite_builder_subset(self):
        traces = surrogate_suite(["mcf", "lbm"], num_uops=300)
        assert [trace.name for trace in traces] == ["mcf", "lbm"]

    @pytest.mark.parametrize("name", sorted(SPEC_SURROGATES))
    def test_every_surrogate_is_memory_intensive(self, name):
        if name in ():
            pytest.skip("compute-only")
        trace = build_surrogate(name, num_uops=800)
        stats = trace.stats()
        assert stats.num_loads > 0
        assert stats.memory_fraction > 0.05


class TestSimPoint:
    def test_sampler_covers_trace(self):
        trace = build_surrogate("milc", num_uops=4000)
        sampler = SimPointSampler(interval_size=500, max_clusters=3, seed=1)
        intervals, total = sampler.select_source(trace)
        assert total == len(trace)
        assert intervals
        assert sum(interval.weight for interval in intervals) == pytest.approx(1.0)
        for interval in intervals:
            assert 0 <= interval.start < interval.end <= len(trace)

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            SimPointSampler(interval_size=0)
        with pytest.raises(ValueError):
            SimPointSampler(max_clusters=0)

    def test_empty_trace(self):
        from repro.workloads.trace import Trace

        assert SimPointSampler().select_source(Trace([])) == ([], 0)
