"""repro — a reproduction of "Precise Runahead Execution" (Naithani et al., 2019/2020).

The package is organised as:

* :mod:`repro.workloads` — micro-op traces and SPEC-surrogate workload generators;
* :mod:`repro.memory` — cache hierarchy, MSHRs and DRAM timing;
* :mod:`repro.uarch` — the cycle-level out-of-order core;
* :mod:`repro.core` — the paper's contribution: SST, PRDQ, EMQ and the
  runahead controllers (RA, RA-buffer, PRE, PRE+EMQ);
* :mod:`repro.energy` — McPAT/CACTI-like energy accounting;
* :mod:`repro.simulation` — single runs, suite comparisons and derived metrics;
* :mod:`repro.analysis` — paper-style report formatting.

Quickstart::

    from repro import SimulationRequest, build_surrogate, run_simulation

    trace = build_surrogate("milc", num_uops=5_000)
    result = run_simulation(trace, SimulationRequest(variant="pre"))
    print(result.ipc, result.stats.runahead_invocations)

``run_multicore([(trace, "pre"), (neighbour, "ooo")])`` runs several cores
side by side on one shared L3, DRAM and bus.
"""

from repro.core import (
    VARIANT_LABELS,
    VARIANTS,
    PreciseRunaheadController,
    RunaheadBufferController,
    TraditionalRunaheadController,
    build_controller,
    build_core,
)
from repro.energy import EnergyModel, EnergyReport
from repro.memory import HierarchyConfig
from repro.registry import (
    PROBE_REGISTRY,
    VARIANT_REGISTRY,
    WORKLOAD_REGISTRY,
    build_workload,
    build_workload_source,
    probe_names,
    register_probe,
    register_variant,
    register_workload,
    variant_names,
    workload_names,
)
from repro.simulation import (
    ComparisonResult,
    ExperimentEngine,
    SimulationRequest,
    SimulationResult,
    SweepResult,
    SweepSpec,
    run_comparison,
    run_multicore,
    run_simulation,
)
from repro.uarch import CoreConfig, CoreStats, OoOCore
from repro.uarch.probes import Probe
from repro.workloads import (
    FileTraceSource,
    GeneratorSource,
    MicroOp,
    Trace,
    TraceSource,
    UopClass,
    WindowedSource,
    build_surrogate,
    surrogate_names,
    surrogate_suite,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "VARIANTS",
    "VARIANT_LABELS",
    "PreciseRunaheadController",
    "RunaheadBufferController",
    "TraditionalRunaheadController",
    "build_controller",
    "build_core",
    "EnergyModel",
    "EnergyReport",
    "HierarchyConfig",
    "PROBE_REGISTRY",
    "VARIANT_REGISTRY",
    "WORKLOAD_REGISTRY",
    "build_workload",
    "build_workload_source",
    "probe_names",
    "register_probe",
    "register_variant",
    "register_workload",
    "variant_names",
    "workload_names",
    "ComparisonResult",
    "ExperimentEngine",
    "SimulationRequest",
    "SimulationResult",
    "SweepResult",
    "SweepSpec",
    "run_comparison",
    "run_multicore",
    "run_simulation",
    "CoreConfig",
    "CoreStats",
    "OoOCore",
    "Probe",
    "FileTraceSource",
    "GeneratorSource",
    "MicroOp",
    "Trace",
    "TraceSource",
    "UopClass",
    "WindowedSource",
    "build_surrogate",
    "surrogate_names",
    "surrogate_suite",
]
