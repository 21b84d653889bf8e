"""Ablation studies over PRE's design parameters.

These sweeps are not figures in the four-page paper, but they exercise the
design choices the paper motivates: the SST must be large enough to hold all
stalling slices (Section 3.6 sizes it at 256 entries "with almost no misses")
and the EMQ bounds how deep PRE+EMQ can run ahead (Section 3.3).
"""

import pytest

from repro.core.pre import PreciseRunaheadController
from repro.uarch.config import CoreConfig
from repro.uarch.core import OoOCore
from repro.workloads.spec_surrogates import build_surrogate


def _run_pre(trace, config, use_emq=False):
    controller = PreciseRunaheadController(use_emq=use_emq)
    core = OoOCore(trace, config=config, controller=controller)
    stats = core.run()
    return stats, controller


def test_bench_ablation_sst_size(benchmark):
    """PRE performance as a function of Stalling Slice Table capacity."""
    trace = build_surrogate("milc", num_uops=4_000)

    def sweep():
        results = {}
        for entries in (4, 16, 64, 256):
            stats, controller = _run_pre(trace, CoreConfig(sst_entries=entries))
            results[entries] = {
                "cycles": stats.cycles,
                "prefetches": stats.runahead_prefetches,
                "sst_hit_rate": round(controller.sst.stats.hit_rate, 3),
            }
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\nSST capacity sweep (milc surrogate):")
    for entries, row in results.items():
        print(f"  {entries:4d} entries: {row}")
    benchmark.extra_info["sst_sweep"] = results
    # A 256-entry SST (the paper's size) must not be slower than a tiny SST.
    assert results[256]["cycles"] <= results[4]["cycles"] * 1.05
    assert results[256]["sst_hit_rate"] >= results[4]["sst_hit_rate"] * 0.9


def test_bench_ablation_emq_size(benchmark):
    """PRE+EMQ runahead depth as a function of EMQ capacity (Section 3.3)."""
    trace = build_surrogate("lbm", num_uops=4_000)

    def sweep():
        results = {}
        for entries in (96, 192, 768, 1536):
            stats, _ = _run_pre(trace, CoreConfig(emq_entries=entries), use_emq=True)
            results[entries] = {
                "cycles": stats.cycles,
                "prefetches": stats.runahead_prefetches,
                "invocations": stats.runahead_invocations,
            }
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\nEMQ capacity sweep (lbm surrogate):")
    for entries, row in results.items():
        print(f"  {entries:4d} entries: {row}")
    benchmark.extra_info["emq_sweep"] = results
    # A larger EMQ can only allow more (or equally many) prefetches per run.
    assert results[1536]["prefetches"] >= results[96]["prefetches"]
    # And a larger EMQ must not hurt end-to-end performance.
    assert results[1536]["cycles"] <= results[96]["cycles"] * 1.05


def test_bench_ablation_runahead_entry_threshold(benchmark):
    """Sensitivity of traditional runahead to the short-interval entry filter."""
    from repro.core.runahead import TraditionalRunaheadController

    trace = build_surrogate("bwaves", num_uops=4_000)

    def sweep():
        results = {}
        for threshold in (0, 56, 200):
            config = CoreConfig(runahead_minimum_interval=threshold)
            stats = OoOCore(trace, config=config, controller=TraditionalRunaheadController()).run()
            results[threshold] = {
                "cycles": stats.cycles,
                "invocations": stats.runahead_invocations,
                "skipped": stats.runahead_entries_skipped_short,
            }
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\nRunahead minimum-interval threshold sweep (bwaves surrogate):")
    for threshold, row in results.items():
        print(f"  threshold {threshold:3d}: {row}")
    benchmark.extra_info["threshold_sweep"] = results
    # A stricter threshold can only reduce the number of runahead entries.
    assert results[200]["invocations"] <= results[0]["invocations"]
