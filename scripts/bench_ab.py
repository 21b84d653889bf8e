#!/usr/bin/env python3
"""Same-host A/B of the repository benchmark: a base revision against the working tree.

Usage, from the repository root::

    python3 scripts/bench_ab.py --base origin/main --workload ooo-high-ipc --pairs 3 --seconds 10

The base revision is extracted with ``git archive`` into a temporary
directory, removed on exit, and the working tree's ``perfbench/`` and
``BENCHMARK.json`` are copied over it, so both sides run identical benchmark
code.  Each side runs ``perfbench/run.py --trace 0`` with its own tree as
working directory and ``PYTHONPATH``, so each checks its own goldens.  Pair
*i* runs seed *i* on both sides, and the side that runs first alternates from
pair to pair.

For every workload and end-to-end metric the report gives each side's median
and quartiles, the change/base ratio of the medians, the pairs the change
won, the failed operations and a verdict against the metric's bound in
``BENCHMARK.json``:

* ``worse``: the change's median is worse than the base's by more than the
  bound, and the base's spread (interquartile range over median) is within
  the bound or every change run is worse than every base run;
* ``ok``: the change's median is not worse by more than the bound, and the
  base's spread is within the bound or every change run beats every base run;
* ``unresolved``: every other case; the base's spread then exceeds the bound,
  and host noise could explain what the medians show.

Exits 1 on any ``worse`` metric or any failed operation on the change side,
else 0.  Needs only the standard library, ``git`` and ``tar``; it never
imports the simulator.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: One ``perfbench/run.py`` result document: ``correct``, ``attempted``,
#: ``failed`` and ``metrics`` (name -> ``{"value", "unit"}``).
Run = Dict[str, Any]


def failed_operations(runs: Sequence[Run]) -> int:
    return sum(run["failed"] for run in runs)


def values(runs: Sequence[Run], name: str) -> List[float]:
    """``name``'s value in every run that reports it (a crashed run reports none)."""
    return [run["metrics"][name]["value"] for run in runs if name in run["metrics"]]


def quartiles(data: Sequence[float]) -> Tuple[float, float, float]:
    """First quartile, median and third quartile, interpolated linearly."""
    if len(data) == 1:
        return data[0], data[0], data[0]
    q1, median, q3 = statistics.quantiles(data, n=4, method="inclusive")
    return q1, median, q3


def judge(
    metric: Dict[str, Any], base_runs: Sequence[Run], change_runs: Sequence[Run]
) -> Dict[str, Any]:
    """One report row for ``metric``, its ``end_to_end`` entry in ``BENCHMARK.json``.

    ``base_runs[i]`` and ``change_runs[i]`` are pair *i*.  The row holds both
    sides' quartiles, the ratio of the medians, the pairs the change won, both
    sides' failed operations and the verdict.  A metric that either side
    never reported is ``unresolved``.
    """
    name, bound = metric["name"], metric["bound"]
    lower = metric["better"] == "lower"

    def better(a: float, b: float) -> bool:
        return a < b if lower else a > b

    row: Dict[str, Any] = {
        "metric": name,
        "unit": metric["unit"],
        "wins": sum(
            1
            for base, change in zip(base_runs, change_runs)
            if name in base["metrics"]
            and name in change["metrics"]
            and better(change["metrics"][name]["value"], base["metrics"][name]["value"])
        ),
        "base_failed": failed_operations(base_runs),
        "change_failed": failed_operations(change_runs),
        "verdict": "unresolved",
    }
    base, change = values(base_runs, name), values(change_runs, name)
    if not base or not change:
        return row
    base_q, change_q = quartiles(base), quartiles(change)
    worse_by = (change_q[1] - base_q[1]) / base_q[1]
    if not lower:
        worse_by = -worse_by
    # Host noise alone cannot settle a comparison against a base whose own
    # spread exceeds the bound; only a clean separation of the runs can.
    steady = (base_q[2] - base_q[0]) / base_q[1] <= bound
    if worse_by > bound:
        if steady or all(better(b, c) for c in change for b in base):
            row["verdict"] = "worse"
    elif steady or all(better(c, b) for c in change for b in base):
        row["verdict"] = "ok"
    row.update(base=base_q, change=change_q, ratio=change_q[1] / base_q[1])
    return row


def exit_status(rows: Sequence[Dict[str, Any]]) -> int:
    """1 if any metric is ``worse`` or the change side failed an operation, else 0."""
    return int(any(row["verdict"] == "worse" or row["change_failed"] for row in rows))


def format_rows(rows: Sequence[Dict[str, Any]]) -> str:
    """A markdown table of ``judge`` rows."""

    def quartile_cell(q: Tuple[float, float, float]) -> str:
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    lines = [
        "| metric | unit | base p50 [q1, q3] | change p50 [q1, q3] | change/base "
        "| change won | failed base/change | verdict |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for row in rows:
        measured = ["-", "-", "-"]
        if "base" in row:
            measured = [
                quartile_cell(row["base"]), quartile_cell(row["change"]), f"{row['ratio']:.3f}"
            ]
        cells = [
            row["metric"], row["unit"], *measured, str(row["wins"]),
            f"{row['base_failed']}/{row['change_failed']}", row["verdict"],
        ]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def crashed(problem: str) -> Run:
    """The result of a run that produced no result document: one failed operation."""
    return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}, "problem": problem}


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> Run:
    """One untraced ``perfbench/run.py`` run with ``tree`` as cwd and ``PYTHONPATH``."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    try:
        proc = subprocess.run(
            command,
            cwd=str(tree),
            env=dict(os.environ, PYTHONPATH=str(tree / "src")),
            capture_output=True,
            text=True,
            timeout=600 + 4 * seconds,
        )
    except subprocess.TimeoutExpired:
        return crashed("timed out")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return crashed(f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    try:
        run = json.loads(lines[-1])
    except json.JSONDecodeError:
        return crashed(f"no result document: {lines[-1][:200]}")
    if run["failed"]:
        run["problem"] = "\n".join(line for line in lines if line.startswith("failed: "))
    return run


def extract(commit: str, dest: Path) -> None:
    """Write ``commit``'s files into ``dest``, with the working tree's benchmark over them."""
    archive = subprocess.Popen(
        ["git", "archive", "--format=tar", commit], cwd=str(ROOT), stdout=subprocess.PIPE
    )
    try:
        untar = subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout)
    finally:
        archive.stdout.close()
        archived = archive.wait()
    if archived or untar.returncode:
        print(f"error: could not extract {commit}", file=sys.stderr)
        raise SystemExit(2)
    shutil.rmtree(dest / "perfbench", ignore_errors=True)
    shutil.copytree(
        ROOT / "perfbench", dest / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    shutil.copy2(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")


def parse_args(argv, spec: Dict[str, Any]) -> argparse.Namespace:
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--base", required=True, metavar="REV", help="git revision to compare against"
    )
    parser.add_argument(
        "--workload", action="append", choices=names,
        help="workload to run (repeatable; default: every workload in BENCHMARK.json)",
    )
    parser.add_argument(
        "--pairs", type=int, default=10, help="base/change run pairs per workload (default: 10)"
    )
    parser.add_argument(
        "--seconds", type=float, default=spec["run_seconds"],
        help=f"length of every run (default: BENCHMARK.json's {spec['run_seconds']})",
    )
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs and --seconds must be positive")
    args.workload = args.workload or names
    proc = subprocess.run(
        ["git", "rev-parse", "--verify", "--quiet", f"{args.base}^{{commit}}"],
        cwd=str(ROOT),
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        parser.error(f"--base {args.base!r} names no commit")
    args.commit = proc.stdout.strip()
    return args


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, spec)
    print(
        f"base {args.base} ({args.commit[:12]}) vs the working tree; {args.pairs} pair(s) of "
        f"{args.seconds:g} s runs per workload",
        flush=True,
    )
    rows: List[Dict[str, Any]] = []
    with tempfile.TemporaryDirectory(prefix="bench-ab-") as tmp:
        trees = {"base": Path(tmp), "change": ROOT}
        extract(args.commit, trees["base"])
        for workload in args.workload:
            runs: Dict[str, List[Run]] = {"base": [], "change": []}
            for pair in range(1, args.pairs + 1):
                for side in ("base", "change") if pair % 2 else ("change", "base"):
                    began = time.perf_counter()
                    run = run_once(trees[side], workload, pair, args.seconds)
                    runs[side].append(run)
                    print(
                        f"{workload} pair {pair}/{args.pairs} {side}: {run['attempted']} "
                        f"operations, {run['failed']} failed "
                        f"({time.perf_counter() - began:.0f} s)",
                        file=sys.stderr,
                        flush=True,
                    )
                    if "problem" in run:
                        print(f"  {run['problem']}", file=sys.stderr, flush=True)
            workload_rows = [
                judge(metric, runs["base"], runs["change"]) for metric in spec["end_to_end"]
            ]
            print(f"\n## {workload}\n\n{format_rows(workload_rows)}", flush=True)
            rows.extend(workload_rows)
    status = exit_status(rows)
    counts = ", ".join(
        f"{sum(row['verdict'] == verdict for row in rows)} {verdict}"
        for verdict in ("worse", "unresolved", "ok")
    )
    print(f"\n{counts}: {'FAIL' if status else 'PASS'}")
    return status


if __name__ == "__main__":
    sys.exit(main())
