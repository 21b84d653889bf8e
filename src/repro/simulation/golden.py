"""Golden-digest capture for bit-identical timing regression testing.

Performance work on the simulator is only safe when the *timing model* is
provably untouched: the optimized engine must produce exactly the statistics
the unoptimized engine produced, for every workload x variant cell.  This
module pins that property:

* :func:`stats_digest` reduces a :class:`~repro.uarch.stats.CoreStats` to a
  stable SHA-256 over its canonical JSON form — every counter, every
  interval-length bin and every free-resource sum contributes, so any timing
  drift (one extra cycle anywhere) changes the digest;
* :func:`capture_goldens` runs a workload x variant matrix through
  :func:`~repro.simulation.simulator.run_simulation` and records each cell's
  digest, IPC, and Figure-2 normalized IPC (speedup over the ``ooo``
  baseline);
* :func:`compare_with_goldens` re-runs the same matrix on the current engine
  and reports every cell whose digest or IPC diverged.

The committed golden file (``tests/goldens/golden_stats.json``, regenerated by
``scripts/capture_goldens.py``) pins the timing model;
``tests/test_golden_stats.py`` asserts the current engine reproduces it bit
for bit.  Its last recapture (schema 2) followed ``CoreStats`` trading its
per-interval and per-stall lists for fixed-size summaries, with every scalar
counter unchanged.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.serde import canonical_json
from repro.simulation.simulator import SimulationRequest, run_simulation
from repro.uarch.stats import CoreStats

#: Bump only when CoreStats gains/loses fields (which legitimately changes
#: digests); the golden file records the schema it was captured under.
GOLDEN_SCHEMA_VERSION = 2

#: The Figure-2 default matrix: the six benchmarks the CLI sweeps by default,
#: against every registered variant.
DEFAULT_GOLDEN_WORKLOADS = ("mcf", "libquantum", "milc", "sphinx3", "bwaves", "lbm")
DEFAULT_GOLDEN_VARIANTS = ("ooo", "runahead", "runahead_buffer", "pre", "pre_emq")
DEFAULT_GOLDEN_UOPS = 1_500

#: Default on-disk location, relative to the repository root.
DEFAULT_GOLDEN_PATH = Path("tests") / "goldens" / "golden_stats.json"


def stats_digest(stats: CoreStats) -> str:
    """Stable content hash of a full ``CoreStats`` record.

    Canonical JSON (sorted keys, no whitespace) over ``to_dict()`` output:
    ints stay ints and floats keep their exact ``repr``, so two runs digest
    equal iff every statistic — including the interval-length bins and the
    free-resource sums — is bit-identical.
    """
    return hashlib.sha256(canonical_json(stats).encode("utf-8")).hexdigest()


def cell_key(workload: str, variant: str) -> str:
    """The golden-file key for one (workload, variant) cell."""
    return f"{workload}/{variant}"


def capture_goldens(
    workloads: Sequence[str] = DEFAULT_GOLDEN_WORKLOADS,
    variants: Sequence[str] = DEFAULT_GOLDEN_VARIANTS,
    num_uops: int = DEFAULT_GOLDEN_UOPS,
) -> Dict[str, Any]:
    """Run the matrix and return the golden record (JSON-able).

    Each cell stores the CoreStats digest, the absolute IPC, and the
    Figure-2 normalized IPC (speedup over the ``ooo`` cell of the same
    workload) so the golden file pins both raw timing and the derived
    figure values.
    """
    from repro.registry import build_workload  # local: avoids import cycles

    cells: Dict[str, Dict[str, Any]] = {}
    for workload in workloads:
        trace = build_workload(workload, num_uops=num_uops)
        baseline_ipc: Optional[float] = None
        for variant in variants:
            result = run_simulation(trace, SimulationRequest(variant=variant))
            ipc = result.stats.ipc
            if variant == "ooo":
                baseline_ipc = ipc
            cells[cell_key(workload, variant)] = {
                "digest": stats_digest(result.stats),
                "ipc": ipc,
                "normalized_ipc": (ipc / baseline_ipc) if baseline_ipc else None,
            }
    return {
        "schema": GOLDEN_SCHEMA_VERSION,
        "num_uops": num_uops,
        "workloads": list(workloads),
        "variants": list(variants),
        "cells": cells,
    }


def write_goldens(record: Dict[str, Any], path: Union[str, Path]) -> Path:
    """Write a golden record to ``path`` (pretty-printed, stable key order)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_goldens(path: Union[str, Path]) -> Dict[str, Any]:
    """Load a golden record written by :func:`write_goldens`."""
    with Path(path).open("r", encoding="utf-8") as handle:
        return json.load(handle)


def compare_with_goldens(record: Dict[str, Any]) -> List[str]:
    """Re-run the record's matrix on the current engine; return mismatch reports.

    An empty list means every cell's ``CoreStats`` digest, IPC, and
    normalized IPC are bit-identical to the golden capture.
    """
    current = capture_goldens(
        record["workloads"], record["variants"], record["num_uops"]
    )
    mismatches: List[str] = []
    for key, cell in current["cells"].items():
        golden = record["cells"][key]
        if cell["digest"] != golden["digest"]:
            mismatches.append(
                f"{key}: CoreStats digest diverged "
                f"(golden ipc={golden['ipc']!r}, current ipc={cell['ipc']!r})"
            )
            continue
        for field, label in (("ipc", "IPC"), ("normalized_ipc", "normalized IPC")):
            if cell[field] != golden[field]:
                mismatches.append(
                    f"{key}: {label} diverged ({golden[field]!r} -> {cell[field]!r})"
                )
    return mismatches


__all__ = [
    "DEFAULT_GOLDEN_PATH",
    "DEFAULT_GOLDEN_UOPS",
    "DEFAULT_GOLDEN_VARIANTS",
    "DEFAULT_GOLDEN_WORKLOADS",
    "GOLDEN_SCHEMA_VERSION",
    "capture_goldens",
    "cell_key",
    "compare_with_goldens",
    "load_goldens",
    "stats_digest",
    "write_goldens",
]
