"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload runahead-memory-bound --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs the untraced and the traced operations side by side and reports the
per-layer metrics (see README.md).  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``, each
metric with its value and unit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOAD_NAMES = (
    "runahead-memory-bound",
    "ooo-high-ipc",
    "sweep-service",
    "multicore-contention",
)

#: Set-ups timed per run (fresh interpreters, or daemons for the service);
#: ``setup_s`` is their median.
SETUP_REPEATS = 9


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="trace-length multiplier (the self-test runs tiny sizes)",
    )
    return parser.parse_args(argv)


def setup_seconds(repeats: int) -> list:
    """Spawn-to-ready times of a fresh interpreter importing the simulation harness."""
    code = (
        "import sys; sys.path[:0] = sys.argv[1:3]; import simulate; "
        "print('ready', flush=True)"
    )
    times = []
    for _ in range(repeats):
        began = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", code, str(ROOT / "src"), str(HERE)],
            cwd=str(ROOT),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - began
        finally:
            proc.stdout.close()
            status = proc.wait(timeout=120)
        if line.strip() != "ready" or status != 0:
            raise RuntimeError("set-up probe did not become ready")
        times.append(elapsed)
    return times


def end_to_end(args, work: Path, outcome) -> dict:
    """The six end-to-end metrics, measured with tracing off."""
    from statistics import geometric_mean

    from report import median, p90

    if args.workload == "sweep-service":
        import service

        figures = service.measure(ROOT, work, args.seconds, outcome, SETUP_REPEATS)
    else:
        import simulate

        setup = median(setup_seconds(SETUP_REPEATS))
        figures = simulate.measure(
            args.workload, args.seed, args.seconds, args.scale, outcome, ROOT
        )
        figures["setup_s"] = setup
        figures["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # The cells of one workload differ up to tenfold in length, and a
    # percentile over their mixed population would jump from one cell to
    # another between runs.  So medians are taken per cell and combined by
    # geometric mean, and the p90 is taken over every job's time relative to
    # its cell's median, pooled, then scaled back by that geometric mean
    # (for a single cell, both reduce to the plain percentiles).
    cold, warm = figures.pop("cold"), figures.pop("warm")
    figures["cold_job_s.p50"] = geometric_mean([median(times) for times in cold.values()])
    warm_medians = {cell: median(times) for cell, times in warm.items()}
    typical = geometric_mean(list(warm_medians.values()))
    figures["warm_job_s.p50"] = typical
    figures["warm_job_s.p90"] = typical * p90(
        [elapsed / warm_medians[cell] for cell, times in warm.items() for elapsed in times]
    )
    samples = sum(len(times) for times in warm.values())
    print(f"samples: {samples} cold and {samples} warm jobs over {len(warm)} cell(s)")
    return figures


def per_layer(args, work: Path, outcome) -> dict:
    """Every per-layer metric from the traced run; layers a workload never calls read 0."""
    from report import PER_LAYER

    if args.workload == "sweep-service":
        import service

        figures = service.measure_traced(ROOT, work, args.seconds, outcome)
    else:
        import simulate

        figures = simulate.measure_traced(
            args.workload, args.seed, args.seconds, args.scale, outcome
        )
    return {name: figures.get(name, 0.0) for name in PER_LAYER}


def seed_note(args) -> str:
    if args.workload == "sweep-service":
        return "seed ignored: the daemon builds the sweep's cells by name"
    import simulate

    names = sorted({core[0] for cell in simulate.WORKLOADS[args.workload] for core in cell})
    ignored = [name for name in names if name in simulate.SEEDLESS]
    used = [name for name in names if name not in simulate.SEEDLESS]
    return (
        f"seed {args.seed} builds: {', '.join(used) or 'none'}; "
        f"ignored by: {', '.join(ignored) or 'none'} (strided_stream takes no seed)"
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from report import UNITS, Outcome

    work = ROOT / ".perfbench-run" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    outcome = Outcome()
    try:
        if args.trace:
            metrics = per_layer(args, work, outcome)
        else:
            metrics = end_to_end(args, work, outcome)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run shares the parent directory
    print(f"workload: {args.workload} (caches start empty; {seed_note(args)})")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:>16.6g} {UNITS[name]}")
    for problem in outcome.problems:
        print(f"failed: {problem}")
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
