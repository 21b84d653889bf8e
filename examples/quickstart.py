#!/usr/bin/env python3
"""Quickstart: simulate one workload on the baseline core and on PRE.

Builds a small multi-slice memory-intensive workload (the situation Precise
Runahead Execution targets), runs it on the baseline out-of-order core and on
a PRE-enabled core, and prints the headline metrics: IPC, speedup, runahead
invocations and prefetches, and energy.

Run with:  python examples/quickstart.py
"""

from repro import SimulationRequest, build_core, run_simulation
from repro.workloads.generators import multi_slice_kernel


def main() -> None:
    trace = multi_slice_kernel(num_uops=5_000, num_slices=4, work_per_iteration=16)
    print(f"workload: {trace.name}, {len(trace)} micro-ops, "
          f"{trace.stats().num_loads} loads, footprint {trace.stats().footprint_bytes // 1024} KB")

    baseline = run_simulation(trace, SimulationRequest(variant="ooo"))
    pre = run_simulation(trace, SimulationRequest(variant="pre"))

    speedup = (baseline.cycles / pre.cycles - 1.0) * 100.0
    energy_saving = (1.0 - pre.total_energy_nj / baseline.total_energy_nj) * 100.0

    print(f"\nbaseline OoO : {baseline.cycles:8d} cycles, IPC {baseline.ipc:.3f}, "
          f"{baseline.stats.full_window_stalls} full-window stalls")
    print(f"PRE          : {pre.cycles:8d} cycles, IPC {pre.ipc:.3f}, "
          f"{pre.stats.runahead_invocations} runahead invocations, "
          f"{pre.stats.runahead_prefetches} prefetches")
    print(f"\nPRE speedup over OoO        : {speedup:+.1f}%")
    print(f"PRE energy saving over OoO  : {energy_saving:+.1f}%")
    print(f"loads that hit under a runahead prefetch: {pre.stats.loads_hit_under_prefetch}")

    # The lower-level API exposes the simulated core directly.
    core = build_core(trace, variant="pre")
    core.run(max_cycles=20_000)
    controller = core.controller
    print(f"\nafter 20k cycles the Stalling Slice Table holds {len(controller.sst)} PCs "
          f"(hit rate {controller.sst.stats.hit_rate:.2f})")


if __name__ == "__main__":
    main()
