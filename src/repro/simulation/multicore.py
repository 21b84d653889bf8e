"""Multi-core simulation: N cores in lockstep over a shared uncore.

The paper evaluates runahead variants on a single core, but the interesting
question for precise runahead is what its extra memory traffic does to a
*neighbour*: PRE issues prefetch-like fills during stalls, and on a real chip
those fills contend for the shared L3, the DRAM banks and the data bus.  This
module builds that experiment: each core keeps its own private L1/L2 hierarchy
(:class:`~repro.memory.hierarchy.PrivateHierarchy`), all cores share one
:class:`~repro.memory.hierarchy.SharedUncore` (L3 + DRAM + bus), and a
:class:`MultiCoreSimulator` steps them in lockstep so every DRAM access lands
on the shared bank/bus state in global-cycle order.

Cores run *disjoint address spaces* (each core's trace addresses are offset by
``address_stride``): contention is therefore purely about capacity and
bandwidth — L3 lines evicted by the neighbour, DRAM requests queued behind the
neighbour's — never about data sharing, which the trace format cannot express
honestly.

One loop, one set-up path: :class:`MultiCoreSimulator` runs the loop a
single-core run uses (:func:`~repro.uarch.core.run_lockstep`), and
:func:`run_multicore` shares its set-up path with ``run_simulation``.

:class:`CoreAssignment` and :class:`MultiCoreSpec` are the serialisable spec
side, used by engine jobs, sweeps and studies to describe co-runner mixes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.energy.model import EnergyModel
from repro.memory.hierarchy import HierarchyConfig
from repro.serde import JSONSerializable
from repro.simulation.simulator import (
    DEFAULT_ADDRESS_STRIDE,
    ProbeLike,
    SimulationResult,
    _simulate,
)
from repro.uarch.config import CoreConfig
from repro.uarch.core import OoOCore, run_lockstep
from repro.uarch.stats import CoreStats
from repro.workloads.trace import TraceSource


@dataclass
class CoreAssignment(JSONSerializable):
    """One co-runner core in a multi-core spec: which workload, which variant."""

    workload: str = ""
    variant: str = "ooo"
    #: Trace length for this core; ``None`` inherits the primary job's length.
    num_uops: Optional[int] = None


@dataclass
class MultiCoreSpec(JSONSerializable):
    """Serialisable description of a multi-core run's co-runners.

    ``cores`` lists the *co-runners only* (cores ``1..N-1``); core 0 is the
    owning job's own workload/variant.  An empty list still means "run through
    the multi-core path" — a degenerate one-core run, useful as the
    no-contention baseline inside a study whose other points add neighbours.
    """

    cores: List[CoreAssignment] = field(default_factory=list)
    address_stride: int = DEFAULT_ADDRESS_STRIDE

    def __post_init__(self) -> None:
        if self.address_stride <= 0:
            raise ValueError(
                f"address_stride must be positive, got {self.address_stride}"
            )

    @property
    def num_cores(self) -> int:
        """Total cores in the run (co-runners plus the primary core 0)."""
        return len(self.cores) + 1


class MultiCoreSimulator:
    """Steps N prepared cores in lockstep on one shared global clock.

    For cores the caller built and wired to one uncore: :meth:`run` is
    :func:`~repro.uarch.core.run_lockstep`, the loop
    :meth:`~repro.uarch.core.OoOCore.run` drives a single core with.
    """

    def __init__(
        self, cores: Sequence[OoOCore], max_cycles: Optional[int] = None
    ) -> None:
        self.cores = list(cores)
        self.max_cycles = max_cycles

    def run(self) -> List[CoreStats]:
        """Run every core to completion; return their stats in core order."""
        return run_lockstep(self.cores, self.max_cycles)


def run_multicore(
    cores: Sequence[Tuple[TraceSource, str]],
    config: Optional[CoreConfig] = None,
    hierarchy_config: Optional[HierarchyConfig] = None,
    energy_model: Optional[EnergyModel] = None,
    max_cycles: Optional[int] = None,
    probes: Optional[Sequence[ProbeLike]] = None,
    address_stride: int = DEFAULT_ADDRESS_STRIDE,
) -> SimulationResult:
    """Simulate ``(trace, variant)`` pairs sharing one uncore, in lockstep.

    Core 0 is the *focus* core: its stats and energy fill the result's
    top-level fields (so a one-core call is a drop-in for
    :func:`~repro.simulation.simulator.run_simulation`), and ``probes``
    attach to it alone.  Every core's stats land in
    :attr:`SimulationResult.cores`, and the shared L3/DRAM/bus usage —
    attributed per core — in :attr:`SimulationResult.uncore`.  Cores may run
    *different* variants (e.g. core 0 PRE, core 1 plain OoO), which is the
    whole point: measure what one core's runahead traffic costs the
    neighbour.
    """
    return _simulate(
        cores,
        config=config,
        hierarchy_config=hierarchy_config,
        energy_model=energy_model,
        max_cycles=max_cycles,
        probes=probes or (),
        address_stride=address_stride,
    )
