#!/usr/bin/env python3
"""Reproduce Figure 3: energy savings of all runahead variants relative to OoO.

Runs the surrogate suite on every core variant with the event-based McPAT/CACTI
style energy model and prints per-benchmark and average energy savings — the
same series the paper's Figure 3 plots (paper averages: RA −2.7%, RA-buffer
~0%, PRE +6.1%, PRE+EMQ +7.2%).

The suite runs through :class:`repro.simulation.engine.ExperimentEngine`; the
equivalent CLI is ``python -m repro sweep --figure 3``.

Run with:  python examples/reproduce_figure3.py [--uops N] [--workers N]
                                                [--cache-dir DIR]
"""

import argparse

from repro.analysis.report import format_energy_figure
from repro.simulation.engine import ExperimentEngine, SweepSpec


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--uops", type=int, default=5_000,
                        help="micro-ops per benchmark trace (default: 5000)")
    parser.add_argument("--benchmarks", type=str,
                        default="mcf,libquantum,milc,sphinx3,bwaves,lbm")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for the sweep (default: 1, serial)")
    parser.add_argument("--cache-dir", type=str, default=None,
                        help="optional result-cache directory")
    parser.add_argument("--probe", action="append", metavar="NAME",
                        help="attach an instrumentation probe (repeatable), "
                             "e.g. --probe mem_profile")
    args = parser.parse_args()

    names = [name.strip() for name in args.benchmarks.split(",") if name.strip()]
    print(f"simulating {len(names)} benchmarks x 5 core variants "
          f"({args.workers} worker(s)) ...\n")
    engine = ExperimentEngine(workers=args.workers, cache_dir=args.cache_dir)
    comparison = engine.run_sweep(
        SweepSpec(workloads=names, num_uops=args.uops, probes=args.probe or [])
    ).comparison

    print(format_energy_figure(comparison))
    print()
    print("Per-variant breakdown of where the energy goes (first benchmark, PRE):")
    result = comparison.benchmarks[0].results["pre"]
    for component, value in result.energy.breakdown.as_dict().items():
        print(f"  {component:28s} {value:14.1f} nJ")

    if args.probe:
        print("\nProbe reports (first benchmark, PRE):")
        for name, report in result.probe_reports.items():
            print(f"  {name}: {report}")


if __name__ == "__main__":
    main()
