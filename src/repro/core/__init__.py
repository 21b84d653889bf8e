"""The paper's contribution: runahead controllers and their hardware structures.

This package implements the four runahead configurations the paper evaluates
(Section 5) on top of the baseline core in :mod:`repro.uarch`:

* ``"ooo"`` — the baseline out-of-order core (no controller);
* ``"runahead"`` — traditional runahead execution (RA) with the Mutlu et al.
  short-interval optimisation;
* ``"runahead_buffer"`` — filtered runahead with a runahead buffer (RA-buffer);
* ``"pre"`` — Precise Runahead Execution;
* ``"pre_emq"`` — PRE with the Extended Micro-op Queue optimisation.

Use :func:`build_controller` or :func:`build_core` to construct them by name.

Variants live in the :data:`repro.registry.VARIANT_REGISTRY`; additional
variants can be added from anywhere with
:func:`repro.registry.register_variant` and are then accepted by
:func:`build_controller`, the experiment engine and the ``python -m repro``
CLI without further changes here.
"""

from __future__ import annotations

from typing import Optional

from repro.core.base import RunaheadController
from repro.core.emq import ExtendedMicroOpQueue
from repro.core.prdq import PRDQEntry, PreciseRegisterDeallocationQueue
from repro.core.pre import PreciseRunaheadController
from repro.core.runahead import TraditionalRunaheadController
from repro.core.runahead_buffer import DependencyChain, RunaheadBufferController
from repro.core.sst import StallingSliceTable
from repro.memory.hierarchy import HierarchyConfig, PrivateHierarchy
from repro.registry import VARIANT_REGISTRY, register_variant
from repro.uarch.config import CoreConfig
from repro.uarch.core import OoOCore
from repro.workloads.trace import Trace


@register_variant("ooo", label="OoO", description="baseline out-of-order core")
def _build_ooo() -> None:
    return None


@register_variant(
    "runahead",
    label="RA",
    description="traditional runahead execution with the short-interval filter",
)
def _build_runahead() -> TraditionalRunaheadController:
    return TraditionalRunaheadController()


@register_variant(
    "runahead_buffer",
    label="RA-buffer",
    description="filtered runahead replaying one stalling slice from a buffer",
)
def _build_runahead_buffer() -> RunaheadBufferController:
    return RunaheadBufferController()


@register_variant("pre", label="PRE", description="precise runahead execution")
def _build_pre() -> PreciseRunaheadController:
    return PreciseRunaheadController(use_emq=False)


@register_variant(
    "pre_emq",
    label="PRE+EMQ",
    description="precise runahead execution with the extended micro-op queue",
)
def _build_pre_emq() -> PreciseRunaheadController:
    return PreciseRunaheadController(use_emq=True)


#: The built-in variant names, in the order the paper's figures present them.
#: New code should prefer :func:`repro.registry.variant_names`, which also
#: covers variants registered after import.
VARIANTS = tuple(VARIANT_REGISTRY.names())

#: Human-readable labels used by reports, matching the paper's terminology.
#: This is a live view: variants registered later appear automatically.
VARIANT_LABELS = VARIANT_REGISTRY.labels_view()


def build_controller(variant: str) -> Optional[RunaheadController]:
    """Build the runahead controller for ``variant`` (``None`` for the baseline).

    Raises
    ------
    ValueError
        If ``variant`` is not registered in the variant registry.
    """
    try:
        entry = VARIANT_REGISTRY.get(variant)
    except KeyError:
        raise ValueError(
            f"unknown variant {variant!r}; expected one of "
            f"{', '.join(VARIANT_REGISTRY.names())}"
        ) from None
    return entry.create()


def build_core(
    trace: Trace,
    variant: str = "pre",
    config: Optional[CoreConfig] = None,
    hierarchy: Optional[PrivateHierarchy] = None,
    hierarchy_config: Optional[HierarchyConfig] = None,
) -> OoOCore:
    """Build a simulated core running ``trace`` with the given runahead variant."""
    if hierarchy is None:
        hierarchy = PrivateHierarchy(hierarchy_config)
    controller = build_controller(variant)
    return OoOCore(trace, config=config, hierarchy=hierarchy, controller=controller)


__all__ = [
    "VARIANTS",
    "VARIANT_LABELS",
    "RunaheadController",
    "TraditionalRunaheadController",
    "RunaheadBufferController",
    "PreciseRunaheadController",
    "StallingSliceTable",
    "PreciseRegisterDeallocationQueue",
    "PRDQEntry",
    "ExtendedMicroOpQueue",
    "DependencyChain",
    "build_controller",
    "build_core",
]
