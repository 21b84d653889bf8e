"""Benchmark self-test: every workload, both modes, at a tiny size.

Run from the repository root::

    python3 perfbench/selftest.py

Asserts that each run reports exactly the metrics ``BENCHMARK.json`` names
for its mode, each with the unit named there, and zero failed operations;
and that the benchmark refuses to run (non-zero exit, no result) in a
directory holding only ``BENCHMARK.json`` and the benchmark's own files.
Exits 1 on the first violation.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))
from run import WORKLOAD_NAMES  # noqa: E402


def run(args, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=str(cwd),
        capture_output=True,
        text=True,
        timeout=300,
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    named = {
        0: {metric["name"]: metric["unit"] for metric in spec["end_to_end"]},
        1: {metric["name"]: metric["unit"] for metric in spec["per_layer"]},
    }
    workloads = [workload["name"] for workload in spec["workloads"]]
    if sorted(workloads) != sorted(WORKLOAD_NAMES):
        print(f"BENCHMARK.json workloads {workloads} != harness {list(WORKLOAD_NAMES)}")
        return 1
    for workload in workloads:
        for trace in (0, 1):
            proc = run(
                ["--workload", workload, "--seed", "1", "--seconds", "0.1",
                 "--trace", str(trace), "--scale", "0.1"],
                ROOT,
            )
            if proc.returncode != 0:
                print(f"{workload} --trace {trace}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            units = {name: entry["unit"] for name, entry in result["metrics"].items()}
            print(f"{workload} --trace {trace}: attempted {result['attempted']}, "
                  f"failed {result['failed']}")
            for name, entry in result["metrics"].items():
                print(f"  {name:34s} {entry['value']:>16.6g} {entry['unit']}")
            if units != named[trace]:
                print(f"metrics or units differ from BENCHMARK.json: {sorted(set(units) ^ set(named[trace]))}")
                return 1
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                print("failed operations:\n" + proc.stdout)
                return 1

    bare = ROOT / ".perfbench-run" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run(["--workload", workloads[0], "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass  # a benchmark run is using it
    if proc.returncode == 0 or proc.stdout.strip():
        print("the benchmark ran without the simulator's sources")
        return 1
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
