#!/usr/bin/env python3
"""Reproduce Figure 2: performance of all runahead variants normalised to OoO.

Runs the SPEC CPU2006 surrogate suite on the baseline out-of-order core,
traditional runahead (RA), the runahead buffer (RA-buffer), PRE and PRE+EMQ,
then prints the per-benchmark and average normalised performance — the same
series the paper's Figure 2 plots.

The suite runs through :class:`repro.simulation.engine.ExperimentEngine`, so
``--workers`` fans the (benchmark, variant) grid out across processes and
``--cache-dir`` reuses results across invocations.  The equivalent CLI is
``python -m repro sweep --figure 2``.

Run with:  python examples/reproduce_figure2.py [--uops N] [--benchmarks a,b,c]
                                                [--workers N] [--cache-dir DIR]
"""

import argparse

from repro.analysis.report import format_performance_figure, summarize_comparison
from repro.simulation.engine import ExperimentEngine, SweepSpec
from repro.workloads.spec_surrogates import surrogate_names


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--uops", type=int, default=5_000,
        help="micro-ops per benchmark trace (default: 5000; larger is slower but smoother)",
    )
    parser.add_argument(
        "--benchmarks", type=str,
        default="mcf,libquantum,milc,sphinx3,bwaves,lbm",
        help="comma-separated surrogate names, or 'all' for the full suite",
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the sweep (default: 1, serial)",
    )
    parser.add_argument(
        "--cache-dir", type=str, default=None,
        help="optional result-cache directory; re-runs skip finished cells",
    )
    parser.add_argument(
        "--probe", action="append", metavar="NAME",
        help="attach an instrumentation probe to every cell (repeatable), "
             "e.g. --probe stall_breakdown",
    )
    args = parser.parse_args()

    if args.benchmarks.strip() == "all":
        names = surrogate_names()
    else:
        names = [name.strip() for name in args.benchmarks.split(",") if name.strip()]

    print(f"simulating {len(names)} benchmarks x 5 core variants "
          f"({args.uops} micro-ops each, {args.workers} worker(s)) ...\n")
    engine = ExperimentEngine(workers=args.workers, cache_dir=args.cache_dir)
    comparison = engine.run_sweep(
        SweepSpec(workloads=names, num_uops=args.uops, probes=args.probe or [])
    ).comparison

    print(format_performance_figure(comparison))
    print()
    print("Headline comparison (paper: RA +14.5%, RA-buffer +14.4%, PRE +35.5%, PRE+EMQ +28.6%):")
    print(summarize_comparison(comparison))

    if args.probe:
        print("\nProbe reports (first benchmark, PRE):")
        reports = comparison.benchmarks[0].results["pre"].probe_reports
        for name, report in reports.items():
            print(f"  {name}: {report}")


if __name__ == "__main__":
    main()
