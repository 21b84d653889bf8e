"""Verdicts of ``scripts/bench_ab.py``, the same-host A/B gate, on synthetic runs.

No benchmark runs here: the verdict is a pure function of the two sides' run
documents and the metric's entry in ``BENCHMARK.json``.
"""

from __future__ import annotations

import ast
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench_ab.py"

_spec = importlib.util.spec_from_file_location("bench_ab", SCRIPT)
bench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ab)

METRICS = {
    metric["name"]: metric
    for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
}

#: Five runs spread 2% (interquartile range over median), inside every bound.
STEADY = [1.00, 1.02, 0.98, 1.01, 0.99]


def runs(name, values, failed=0):
    """perfbench result documents reporting ``name`` once per value."""
    unit = METRICS[name]["unit"]
    return [
        {
            "correct": not failed,
            "attempted": 10,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}},
        }
        for value in values
    ]


def verdict(name, base, change, change_failed=0):
    row = bench_ab.judge(METRICS[name], runs(name, base), runs(name, change, change_failed))
    return row, bench_ab.exit_status([row])


@pytest.mark.parametrize(
    "name, factor",
    [
        ("cold_job_s.p50", 1.30),  # a time 30% longer
        ("sim_uops_per_s", 0.70),  # throughput 30% lower
        ("peak_rss_mb", 1.11),  # memory 11% higher, against its 0.1 bound
    ],
)
def test_worse_beyond_the_bound_fails(name, factor):
    row, status = verdict(name, STEADY, [value * factor for value in STEADY])
    assert row["verdict"] == "worse"
    assert row["ratio"] == pytest.approx(factor)
    assert row["wins"] == 0
    assert status == 1


def test_worse_within_the_bound_passes():
    row, status = verdict("warm_job_s.p50", STEADY, [value * 1.10 for value in STEADY])
    assert row["verdict"] == "ok"
    assert status == 0


def test_a_base_spread_wider_than_the_bound_is_unresolved():
    noisy = [1.0, 0.6, 1.4, 0.8, 1.2]  # interquartile range 0.4 of the median
    row, status = verdict("setup_s", noisy, [0.9, 1.0, 1.1, 0.95, 1.05])
    assert row["verdict"] == "unresolved"
    assert status == 0
    # ... unless every change run beats every base run.
    row, status = verdict("setup_s", noisy, [0.5, 0.55, 0.45, 0.5, 0.52])
    assert (row["verdict"], row["wins"], status) == ("ok", 5, 0)


def test_a_bound_miss_against_a_noisy_base_is_unresolved():
    # The shape of a host-noise miss: the change's median is 30% slower, past
    # the 25% bound, but the base's own spread (IQR 55% of its median) is
    # wider still and the runs overlap.
    noisy = [1.0, 0.5, 1.6, 0.75, 1.3]
    row, status = verdict("warm_job_s.p90", noisy, [1.3, 0.9, 1.5, 1.2, 1.4])
    assert row["ratio"] == pytest.approx(1.3)
    assert (row["verdict"], status) == ("unresolved", 0)


def test_a_bound_miss_against_a_noisy_base_with_every_run_worse_fails():
    noisy = [1.0, 0.5, 1.6, 0.75, 1.3]
    row, status = verdict("warm_job_s.p90", noisy, [1.7, 1.8, 2.0, 1.9, 1.75])
    assert (row["verdict"], row["wins"], status) == ("worse", 0, 1)


def test_a_failed_operation_on_the_change_side_fails():
    row, status = verdict("warm_job_s.p90", STEADY, STEADY, change_failed=1)
    assert (row["verdict"], row["change_failed"], status) == ("ok", 5, 1)
    # A failure on the base side alone does not fail the change.
    name = "warm_job_s.p90"
    row = bench_ab.judge(METRICS[name], runs(name, STEADY, 1), runs(name, STEADY))
    assert (row["base_failed"], bench_ab.exit_status([row])) == (5, 0)


def test_a_crashed_change_run_fails_without_its_metrics():
    base = runs("sim_uops_per_s", STEADY)
    row = bench_ab.judge(METRICS["sim_uops_per_s"], base, [bench_ab.crashed("exit 1")] * 5)
    assert row["verdict"] == "unresolved"
    assert bench_ab.exit_status([row]) == 1


def test_the_script_never_imports_the_simulator():
    tree = ast.parse(SCRIPT.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert not [name for name in imported if name.split(".")[0] == "repro"]
