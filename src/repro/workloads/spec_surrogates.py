"""Named SPEC CPU2006 surrogate workloads.

The paper (following the runahead-buffer study it compares against) evaluates
on the memory-intensive subset of SPEC CPU2006 using 1B-instruction SimPoints.
Those binaries and traces are unavailable here, so each benchmark is replaced
by a deterministic synthetic surrogate whose *memory behaviour class* matches
the published characterisation of that benchmark:

* ``mcf``/``omnetpp``   — dependent pointer chasing (little exploitable MLP),
* ``libquantum``/``lbm`` — regular streaming with one dominant stalling slice,
* ``milc``/``soplex``/``GemsFDTD``/``leslie3d`` — several independent slices,
* ``sphinx3``/``zeusmp`` — compute/memory mixes,
* ``bwaves``/``cactusADM`` — indexed gathers over large arrays.

The per-surrogate parameters (number of slices, footprint, compute density)
control where each one falls on the spectrum the paper's Figure 2 spans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.registry import WORKLOAD_REGISTRY, build_workload
from repro.workloads.generators import (
    WorkloadSpec,
    linked_list_chase,
    mixed_compute_memory,
    multi_slice_kernel,
    random_access_kernel,
    strided_stream,
)
from repro.workloads.trace import Trace, TraceSource


@dataclass(frozen=True)
class SurrogateBenchmark:
    """A SPEC CPU2006 benchmark and the surrogate workload standing in for it."""

    spec_name: str
    behaviour: str
    spec: WorkloadSpec

    def build(self, num_uops: Optional[int] = None) -> Trace:
        """Build the surrogate trace, optionally overriding its length."""
        overrides = {}
        if num_uops is not None:
            overrides["num_uops"] = num_uops
        trace = self.spec.build(**overrides)
        trace.name = self.spec_name
        return trace

    def build_source(self, num_uops: Optional[int] = None) -> TraceSource:
        """A lazy :class:`TraceSource` for the surrogate (micro-ops on demand).

        Yields the identical micro-op stream as :meth:`build` without
        materialising it, so arbitrarily long surrogate traces can drive the
        simulator at O(window) memory.
        """
        overrides = {}
        if num_uops is not None:
            overrides["num_uops"] = num_uops
        source = self.spec.source(**overrides)
        source.name = self.spec_name
        return source


def _make_suite() -> Dict[str, SurrogateBenchmark]:
    suite: Dict[str, SurrogateBenchmark] = {}

    def add(spec_name: str, behaviour: str, spec: WorkloadSpec) -> None:
        bench = SurrogateBenchmark(spec_name=spec_name, behaviour=behaviour, spec=spec)
        suite[spec_name] = bench
        WORKLOAD_REGISTRY.register(
            spec_name,
            bench.build,
            description=behaviour,
            replace=True,
            suite="spec2006",
            # Streaming construction path for the same micro-op sequence.
            source_factory=bench.build_source,
            # Identifies the generated trace content for the result cache: a
            # parameter change invalidates cached cells even though the
            # workload keeps its name.
            cache_token={
                "generator": spec.generator.__name__,
                "params": dict(spec.params),
            },
        )

    add(
        "mcf",
        "dependent pointer chasing over a multi-MB graph",
        WorkloadSpec(
            name="mcf",
            generator=linked_list_chase,
            params={"num_nodes": 96_000, "work_per_node": 6, "seed": 11},
        ),
    )
    add(
        "omnetpp",
        "pointer chasing with more per-node work",
        WorkloadSpec(
            name="omnetpp",
            generator=linked_list_chase,
            params={"num_nodes": 48_000, "work_per_node": 7, "seed": 12},
        ),
    )
    add(
        "libquantum",
        "regular streaming; a single stalling slice covers all misses",
        WorkloadSpec(
            name="libquantum",
            generator=strided_stream,
            params={"element_bytes": 8, "work_per_element": 5, "region_bytes": 16 * 1024 * 1024},
        ),
    )
    add(
        "lbm",
        "streaming with larger elements and heavier FP work",
        WorkloadSpec(
            name="lbm",
            generator=strided_stream,
            params={"element_bytes": 8, "work_per_element": 8, "region_bytes": 24 * 1024 * 1024},
        ),
    )
    add(
        "milc",
        "four independent strided slices per iteration",
        WorkloadSpec(
            name="milc",
            generator=multi_slice_kernel,
            params={
                "num_slices": 8,
                "work_per_iteration": 24,
                "element_bytes": 8,
                "seed": 13,
            },
        ),
    )
    add(
        "soplex",
        "three independent slices with longer address chains",
        WorkloadSpec(
            name="soplex",
            generator=multi_slice_kernel,
            params={
                "num_slices": 6,
                "slice_depth": 3,
                "work_per_iteration": 20,
                "element_bytes": 8,
                "seed": 14,
            },
        ),
    )
    add(
        "GemsFDTD",
        "six independent slices, large footprint",
        WorkloadSpec(
            name="GemsFDTD",
            generator=multi_slice_kernel,
            params={
                "num_slices": 10,
                "work_per_iteration": 30,
                "element_bytes": 8,
                "region_bytes": 32 * 1024 * 1024,
                "seed": 15,
            },
        ),
    )
    add(
        "leslie3d",
        "two slices with moderate compute",
        WorkloadSpec(
            name="leslie3d",
            generator=multi_slice_kernel,
            params={
                "num_slices": 4,
                "work_per_iteration": 18,
                "element_bytes": 8,
                "seed": 16,
            },
        ),
    )
    add(
        "bwaves",
        "indexed gather with cache-resident index array",
        WorkloadSpec(
            name="bwaves",
            generator=random_access_kernel,
            params={
                "data_region_bytes": 32 * 1024 * 1024,
                "miss_fraction": 0.35,
                "work_per_iteration": 6,
                "seed": 17,
            },
        ),
    )
    add(
        "cactusADM",
        "indexed gather with heavier per-element work",
        WorkloadSpec(
            name="cactusADM",
            generator=random_access_kernel,
            params={
                "data_region_bytes": 24 * 1024 * 1024,
                "miss_fraction": 0.25,
                "work_per_iteration": 10,
                "seed": 18,
            },
        ),
    )
    add(
        "sphinx3",
        "compute-heavy loop with periodic misses and stores",
        WorkloadSpec(
            name="sphinx3",
            generator=mixed_compute_memory,
            params={
                "memory_interval": 18,
                "num_streams": 2,
                "element_bytes": 8,
                "store_fraction": 0.2,
                "seed": 19,
            },
        ),
    )
    add(
        "zeusmp",
        "compute/memory mix with more streams and stores",
        WorkloadSpec(
            name="zeusmp",
            generator=mixed_compute_memory,
            params={
                "memory_interval": 15,
                "num_streams": 3,
                "element_bytes": 8,
                "store_fraction": 0.35,
                "seed": 20,
            },
        ),
    )
    return suite


#: The full surrogate suite, keyed by SPEC benchmark name.  Each benchmark is
#: also registered in :data:`repro.registry.WORKLOAD_REGISTRY` under the same
#: name, which is how the experiment engine and the CLI reach it.
SPEC_SURROGATES: Dict[str, SurrogateBenchmark] = _make_suite()


def surrogate_names() -> List[str]:
    """Return the names of all surrogate benchmarks in a stable order."""
    return list(SPEC_SURROGATES)


def build_surrogate(name: str, num_uops: Optional[int] = None) -> Trace:
    """Build the trace for the workload ``name`` (surrogate or registered).

    Any workload in :data:`repro.registry.WORKLOAD_REGISTRY` is accepted, so
    custom workloads registered with
    :func:`repro.registry.register_workload` build through the same path as
    the SPEC surrogates.

    Raises
    ------
    KeyError
        If ``name`` is not a registered workload.
    """
    return build_workload(name, num_uops=num_uops)


def surrogate_suite(
    names: Optional[Iterable[str]] = None, num_uops: Optional[int] = None
) -> List[Trace]:
    """Build a list of surrogate traces (the whole suite by default)."""
    selected = list(names) if names is not None else surrogate_names()
    return [build_surrogate(name, num_uops=num_uops) for name in selected]
