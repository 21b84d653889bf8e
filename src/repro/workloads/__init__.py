"""Workload substrate: micro-op traces and synthetic SPEC-surrogate generators.

The paper evaluates PRE on memory-intensive SPEC CPU2006 benchmarks simulated
with 1B-instruction SimPoints on Sniper.  Neither the benchmarks nor traces of
them are available here, so this package provides deterministic synthetic
workload generators that reproduce the memory behaviours the evaluation relies
on (pointer chasing, streaming with a single stalling slice, multi-slice
irregular access, and compute/memory mixes), plus a SimPoint-like sampler.
Each surrogate reproduces its benchmark's memory behaviour class;
:mod:`repro.workloads.spec_surrogates` lists the classes.
"""

from repro.workloads.trace import (
    ArchReg,
    MicroOp,
    Trace,
    TraceSource,
    TraceStats,
    UopClass,
    FP_REG_BASE,
    NUM_ARCH_REGS,
)
from repro.workloads.source import (
    FileTraceSource,
    GeneratorSource,
    WindowedSource,
    read_trace_header,
    trace_file_digest,
    write_trace_file,
)
from repro.workloads.generators import (
    WorkloadSpec,
    compute_kernel,
    linked_list_chase,
    mixed_compute_memory,
    multi_slice_kernel,
    random_access_kernel,
    strided_stream,
)
from repro.workloads.spec_surrogates import (
    SPEC_SURROGATES,
    SurrogateBenchmark,
    build_surrogate,
    surrogate_names,
    surrogate_suite,
)
from repro.workloads.simpoint import SimPointInterval, SimPointSampler

__all__ = [
    "ArchReg",
    "MicroOp",
    "Trace",
    "TraceSource",
    "TraceStats",
    "UopClass",
    "FP_REG_BASE",
    "NUM_ARCH_REGS",
    "FileTraceSource",
    "GeneratorSource",
    "WindowedSource",
    "read_trace_header",
    "trace_file_digest",
    "write_trace_file",
    "WorkloadSpec",
    "compute_kernel",
    "linked_list_chase",
    "mixed_compute_memory",
    "multi_slice_kernel",
    "random_access_kernel",
    "strided_stream",
    "SPEC_SURROGATES",
    "SurrogateBenchmark",
    "build_surrogate",
    "surrogate_names",
    "surrogate_suite",
    "SimPointInterval",
    "SimPointSampler",
]
