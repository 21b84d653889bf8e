"""Structural fingerprints of the cache-key-visible dataclasses.

Everything :func:`repro.simulation.engine.job_cache_key` hashes flows
through a small set of serde dataclasses — job/sweep/study/replay specs and
the core/hierarchy configuration tree.  Adding, removing, renaming or
retyping a field on any of them changes what the content-addressed
``ResultCache`` (and the service's admission-time dedupe) considers "the same
experiment", so the repo's contract is: **any such change must come with a
``CACHE_SCHEMA_VERSION`` bump**, which invalidates every cached result.

This module derives a canonical *structure* for each of those classes —
``{field name -> rendered type}``, transitively including every nested
dataclass reachable through field types — and hashes it into a single
fingerprint.  The committed golden (``tests/goldens/schema_fingerprint.json``,
refreshed by ``scripts/capture_schema_fingerprint.py``) pins the fingerprint
the current ``CACHE_SCHEMA_VERSION`` was minted for; the ``cache-schema``
lint rule fails when the live structure drifts away from it without a bump.

The structure is deliberately *insensitive* to field order (fields are
sorted by name) and to everything that cannot change a cache key's meaning
(docstrings, methods, validation); it is sensitive exactly to the field
add/remove/rename/type-change class of edits.
"""

from __future__ import annotations

import dataclasses
import hashlib
import types
import typing
from typing import Any, Dict, List, Tuple, Union

from repro.serde import canonical_json

#: Where the committed fingerprint lives, relative to the repo root.
GOLDEN_RELPATH = "tests/goldens/schema_fingerprint.json"

#: The root set of cache-key-visible dataclasses.  Nested dataclasses
#: (DRAMConfig under HierarchyConfig, StudyAxis/AxisPoint under StudySpec,
#: ...) are pulled in transitively by :func:`schema_structures`.
SCHEMA_ROOTS: Tuple[str, ...] = (
    "repro.simulation.engine:JobSpec",
    "repro.simulation.engine:SweepSpec",
    "repro.simulation.simulator:SimulationRequest",
    "repro.simulation.study:StudySpec",
    "repro.simulation.shard:ReplaySpec",
    "repro.uarch.config:CoreConfig",
    "repro.memory.hierarchy:HierarchyConfig",
    "repro.memory.cache:CacheConfig",
    "repro.memory.dram:DRAMConfig",
)

_ABC_NAMES = {
    "Sequence": "Sequence",
    "MutableSequence": "MutableSequence",
    "Mapping": "Mapping",
    "MutableMapping": "MutableMapping",
    "Set": "AbstractSet",
    "Iterable": "Iterable",
}


def _load_roots() -> List[type]:
    import importlib

    classes = []
    for spec in SCHEMA_ROOTS:
        module_name, _, class_name = spec.partition(":")
        classes.append(getattr(importlib.import_module(module_name), class_name))
    return classes


def render_type(hint: Any) -> str:
    """A Python-version-stable string form of a field type hint.

    ``repr(hint)`` is *not* stable across 3.10—3.13 (``Optional`` collapsing,
    PEP 604 unions, ``typing`` vs ``collections.abc`` generics), so this walks
    origins/args explicitly and normalises: unions render as
    ``Optional[...]``/``Union[...]``, dataclasses as ``module.QualName``, and
    bare builtins by name.
    """
    if hint is type(None):
        return "None"
    if hint is Any:
        return "Any"
    if hint is Ellipsis:
        return "..."
    origin = typing.get_origin(hint)
    if origin is None:
        if dataclasses.is_dataclass(hint) and isinstance(hint, type):
            return f"{hint.__module__}.{hint.__qualname__}"
        if isinstance(hint, type):
            return hint.__name__
        return str(hint)
    args = typing.get_args(hint)
    if origin is Union or origin is getattr(types, "UnionType", None):
        non_none = [a for a in args if a is not type(None)]
        if len(non_none) == len(args) - 1:
            inner = ", ".join(render_type(a) for a in non_none)
            return f"Optional[{inner}]" if len(non_none) == 1 else f"Optional[Union[{inner}]]"
        return "Union[" + ", ".join(render_type(a) for a in args) + "]"
    name = getattr(origin, "__name__", None) or str(origin)
    name = _ABC_NAMES.get(name, name)
    if name in ("list", "tuple", "dict", "set", "frozenset"):
        name = name.capitalize() if name != "frozenset" else "FrozenSet"
    if not args:
        return name
    return name + "[" + ", ".join(render_type(a) for a in args) + "]"


def structure_of(cls: type) -> Dict[str, str]:
    """``{field name: rendered type}`` for one dataclass, sorted by name."""
    hints = typing.get_type_hints(cls)
    return {
        field.name: render_type(hints.get(field.name, Any))
        for field in sorted(dataclasses.fields(cls), key=lambda f: f.name)
    }


def _nested_dataclasses(hint: Any) -> List[type]:
    found = []
    if dataclasses.is_dataclass(hint) and isinstance(hint, type):
        found.append(hint)
    for arg in typing.get_args(hint):
        found.extend(_nested_dataclasses(arg))
    return found


def schema_structures() -> Dict[str, Dict[str, str]]:
    """Structures of every schema root plus transitively nested dataclasses."""
    pending = _load_roots()
    seen: Dict[str, Dict[str, str]] = {}
    while pending:
        cls = pending.pop()
        key = f"{cls.__module__}.{cls.__qualname__}"
        if key in seen:
            continue
        seen[key] = structure_of(cls)
        hints = typing.get_type_hints(cls)
        for field in dataclasses.fields(cls):
            for nested in _nested_dataclasses(hints.get(field.name)):
                pending.append(nested)
    return dict(sorted(seen.items()))


def fingerprint(structures: Dict[str, Dict[str, str]]) -> str:
    """A content hash of the full structure map (dict-order-insensitive)."""
    return hashlib.sha256(canonical_json(structures).encode()).hexdigest()


def current_record() -> Dict[str, Any]:
    """The record ``scripts/capture_schema_fingerprint.py`` commits."""
    from repro.simulation.engine import CACHE_SCHEMA_VERSION

    structures = schema_structures()
    return {
        "cache_schema_version": CACHE_SCHEMA_VERSION,
        "fingerprint": fingerprint(structures),
        "classes": structures,
    }


def diff_structures(
    old: Dict[str, Dict[str, str]], new: Dict[str, Dict[str, str]]
) -> List[str]:
    """Human-readable structural differences, one message per drifted class."""
    messages: List[str] = []
    for name in sorted(set(old) | set(new)):
        if name not in old:
            messages.append(f"{name}: class is new to the cache-key schema")
            continue
        if name not in new:
            messages.append(f"{name}: class left the cache-key schema")
            continue
        before, after = old[name], new[name]
        if before == after:
            continue
        parts = []
        for fld in sorted(set(before) | set(after)):
            if fld not in before:
                parts.append(f"+{fld}: {after[fld]}")
            elif fld not in after:
                parts.append(f"-{fld}")
            elif before[fld] != after[fld]:
                parts.append(f"{fld}: {before[fld]} -> {after[fld]}")
        messages.append(f"{name}: " + ", ".join(parts))
    return messages
