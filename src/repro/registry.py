"""Decorator-based registries for runahead variants and workloads.

The paper's evaluation is a cross-product of workloads x core variants.  Both
axes used to be hardcoded (an if/elif chain in ``repro.core.build_controller``
and a module-level ``SPEC_SURROGATES`` dict); this module turns each axis into
an extensible registry so that experiments, the sweep engine and the CLI can
enumerate and construct entries *by name*, and downstream code can add new
variants or workloads without touching core files:

.. code-block:: python

    from repro.registry import register_variant, register_workload

    @register_variant("my_variant", label="Mine")
    def _build_my_variant():
        return MyController()

    @register_workload("ping_pong", description="two alternating streams")
    def _build_ping_pong(num_uops=20_000):
        return some_generator(num_uops=num_uops)

Names registered this way immediately show up in ``python -m repro list``,
are accepted by ``python -m repro sweep`` and by
:class:`repro.simulation.engine.ExperimentEngine`, and (for variants) by
:func:`repro.core.build_controller`.

Registration order is preserved and significant: it is the order figures and
tables present their columns, matching the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, TypeVar

F = TypeVar("F", bound=Callable[..., Any])


@dataclass(frozen=True)
class RegistryEntry:
    """One registered factory plus its presentation metadata."""

    name: str
    factory: Callable[..., Any]
    label: str
    description: str = ""
    metadata: Mapping[str, Any] = field(default_factory=dict)

    def create(self, *args: Any, **kwargs: Any) -> Any:
        """Invoke the factory."""
        return self.factory(*args, **kwargs)


class DuplicateRegistrationError(ValueError):
    """Raised when a name is registered twice without ``replace=True``."""


class Registry:
    """An ordered name -> factory mapping with decorator registration."""

    def __init__(self, kind: str, plural: Optional[str] = None) -> None:
        self.kind = kind
        self.plural = plural or f"{kind}s"
        self._entries: Dict[str, RegistryEntry] = {}
        self._labels: Dict[str, str] = {}

    # ------------------------------------------------------------ registration

    def register(
        self,
        name: str,
        factory: Optional[Callable[..., Any]] = None,
        *,
        label: Optional[str] = None,
        description: str = "",
        replace: bool = False,
        **metadata: Any,
    ):
        """Register ``factory`` under ``name``; usable directly or as a decorator.

        Raises
        ------
        DuplicateRegistrationError
            If ``name`` is already registered and ``replace`` is false.
        """

        def _register(func: F) -> F:
            if name in self._entries and not replace:
                raise DuplicateRegistrationError(
                    f"{self.kind} {name!r} is already registered; "
                    f"pass replace=True to override it"
                )
            entry = RegistryEntry(
                name=name,
                factory=func,
                label=label or name,
                description=description,
                metadata=dict(metadata),
            )
            self._entries[name] = entry
            self._labels[name] = entry.label
            return func

        if factory is not None:
            return _register(factory)
        return _register

    def unregister(self, name: str) -> None:
        """Remove a registration (used by tests and plugin teardown)."""
        self._entries.pop(name, None)
        self._labels.pop(name, None)

    # ----------------------------------------------------------------- lookup

    def get(self, name: str) -> RegistryEntry:
        """Return the entry for ``name``.

        Raises
        ------
        KeyError
            With the list of known names, if ``name`` is unknown.
        """
        try:
            return self._entries[name]
        except KeyError:
            known = ", ".join(self.names()) or "<none>"
            raise KeyError(
                f"unknown {self.kind} {name!r}; registered {self.plural}: {known}"
            ) from None

    def create(self, name: str, *args: Any, **kwargs: Any) -> Any:
        """Construct the object registered under ``name``."""
        return self.get(name).create(*args, **kwargs)

    def names(self) -> List[str]:
        """All registered names, in registration order."""
        return list(self._entries)

    def entries(self) -> List[RegistryEntry]:
        """All entries, in registration order."""
        return list(self._entries.values())

    def labels_view(self) -> Mapping[str, str]:
        """A live read-only name -> label mapping backed by the registry."""
        return MappingProxyType(self._labels)

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"Registry(kind={self.kind!r}, names={self.names()!r})"


#: Runahead core variants: factories return a controller (or ``None`` for the
#: baseline) when called with no arguments.
VARIANT_REGISTRY = Registry("variant")

#: Workloads: factories return a :class:`~repro.workloads.trace.Trace` and
#: accept an optional ``num_uops`` keyword overriding the trace length.  An
#: entry may additionally carry a ``source_factory`` metadata callable
#: returning a :class:`~repro.workloads.trace.TraceSource` for streaming
#: construction (see :func:`build_workload_source`).
WORKLOAD_REGISTRY = Registry("workload")

#: Instrumentation probes: factories return a fresh
#: :class:`~repro.uarch.probes.Probe` when called with no arguments.  Probes
#: registered here are selectable by name from the experiment engine and the
#: ``--probe`` CLI flag.
PROBE_REGISTRY = Registry("probe")


def register_variant(
    name: str,
    *,
    label: Optional[str] = None,
    description: str = "",
    replace: bool = False,
    **metadata: Any,
):
    """Decorator registering a controller factory as a core variant."""
    return VARIANT_REGISTRY.register(
        name, label=label, description=description, replace=replace, **metadata
    )


def register_workload(
    name: str,
    *,
    label: Optional[str] = None,
    description: str = "",
    replace: bool = False,
    **metadata: Any,
):
    """Decorator registering a trace factory as a workload."""
    return WORKLOAD_REGISTRY.register(
        name, label=label, description=description, replace=replace, **metadata
    )


def register_probe(
    name: str,
    *,
    label: Optional[str] = None,
    description: str = "",
    replace: bool = False,
    **metadata: Any,
):
    """Decorator registering a probe factory as an instrumentation probe."""
    return PROBE_REGISTRY.register(
        name, label=label, description=description, replace=replace, **metadata
    )


def probe_names() -> List[str]:
    """Registered probe names, in registration order."""
    return PROBE_REGISTRY.names()


def variant_names() -> List[str]:
    """Registered variant names, in figure order."""
    return VARIANT_REGISTRY.names()


def workload_names() -> List[str]:
    """Registered workload names, in registration order."""
    return WORKLOAD_REGISTRY.names()


def build_workload(name: str, num_uops: Optional[int] = None):
    """Build the trace for workload ``name``, optionally overriding its length.

    This is the one construction path the experiment engine and its worker
    processes use, so any workload reachable here can participate in sweeps.
    """
    entry = WORKLOAD_REGISTRY.get(name)
    if num_uops is None:
        return entry.create()
    return entry.create(num_uops=num_uops)


def build_workload_source(name: str, num_uops: Optional[int] = None):
    """Build a lazy :class:`~repro.workloads.trace.TraceSource` for ``name``.

    Uses the registry entry's ``source_factory`` metadata when present (the
    streaming construction path, identical micro-op stream at O(window)
    memory); otherwise returns the eager trace, itself a source, so every
    registered workload is reachable through this call.
    """
    entry = WORKLOAD_REGISTRY.get(name)
    factory = entry.metadata.get("source_factory")
    if factory is not None:
        if num_uops is None:
            return factory()
        return factory(num_uops=num_uops)
    return build_workload(name, num_uops=num_uops)
