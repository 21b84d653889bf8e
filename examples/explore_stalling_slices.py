#!/usr/bin/env python3
"""Explore how PRE learns stalling slices and recycles registers.

Runs a multi-slice workload on a PRE core and inspects the paper's three new
hardware structures as the simulation progresses:

* the Stalling Slice Table (SST) — which static instructions were identified
  as belonging to a stalling slice (Section 3.2);
* the Precise Register Deallocation Queue (PRDQ) — how many physical
  registers runahead execution borrowed and recycled (Section 3.4);
* the runahead intervals themselves — how long they are and how many
  prefetches each one generated.

Run with:  python examples/explore_stalling_slices.py
"""

from collections import Counter

from repro.core.pre import PreciseRunaheadController
from repro.simulation.metrics import interval_length_histogram
from repro.uarch.core import OoOCore
from repro.workloads.generators import multi_slice_kernel
from repro.workloads.trace import UopClass


def main() -> None:
    trace = multi_slice_kernel(num_uops=6_000, num_slices=4, work_per_iteration=16)
    controller = PreciseRunaheadController()
    core = OoOCore(trace, controller=controller)
    stats = core.run()

    load_pcs = set(trace.pcs_of_class(UopClass.LOAD))
    sst_pcs = set(controller.sst.pcs())
    classes = Counter()
    pc_to_class = {uop.pc: uop.uop_class for uop in trace}
    for pc in sst_pcs:
        classes[pc_to_class.get(pc, UopClass.NOP).value] += 1

    print(f"workload: {trace.name}, {len(trace)} micro-ops, {len(load_pcs)} static loads")
    print(f"simulated {stats.cycles} cycles at IPC {stats.ipc:.3f}")
    print(f"\nStalling Slice Table after the run ({len(controller.sst)} entries):")
    print(f"  load PCs captured      : {len(sst_pcs & load_pcs)} / {len(load_pcs)}")
    print(f"  entries by micro-op class: {dict(classes)}")
    print(f"  lookup hit rate        : {controller.sst.stats.hit_rate:.3f}")

    print(f"\nPrecise Register Deallocation Queue:")
    print(f"  allocations            : {controller.prdq.stats.allocations}")
    print(f"  registers reclaimed    : {controller.prdq.stats.registers_reclaimed}")
    print(f"  peak occupancy         : {controller.prdq.stats.peak_occupancy} / "
          f"{controller.prdq.capacity}")

    print(f"\nRunahead intervals:")
    print(f"  invocations            : {stats.runahead_invocations}")
    print(f"  mean length            : {stats.average_interval_length:.1f} cycles")
    print(f"  < 20-cycle fraction    : {stats.short_interval_fraction():.2f} "
          f"(paper reports 0.27 for prior proposals)")
    print(f"  length histogram       : {interval_length_histogram(stats)}")
    print(f"  prefetches issued      : {stats.runahead_prefetches}")
    print(f"  demand loads hitting under a prefetch: {stats.loads_hit_under_prefetch}")

    free = stats.mean_free_resources()
    print(f"\nFree resources at full-window stalls (Section 3.4, paper: 0.37/0.51/0.59):")
    print(f"  issue queue {free['iq']:.2f}, int registers {free['int_regs']:.2f}, "
          f"fp registers {free['fp_regs']:.2f}")


if __name__ == "__main__":
    main()
