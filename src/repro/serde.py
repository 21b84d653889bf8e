"""JSON serialisation for the repro dataclasses.

Every result and configuration object the experiment engine persists —
:class:`~repro.uarch.config.CoreConfig`,
:class:`~repro.memory.hierarchy.HierarchyConfig`,
:class:`~repro.uarch.stats.CoreStats`,
:class:`~repro.energy.model.EnergyReport`,
:class:`~repro.simulation.simulator.SimulationResult` and
:class:`~repro.simulation.experiment.ComparisonResult` — is a (possibly
nested) dataclass.  Rather than hand-writing one encoder/decoder pair per
class, this module derives them from dataclass fields and their type hints:

* :func:`to_jsonable` lowers a dataclass tree to plain dicts, lists, strings
  and numbers (enums become their ``value``), i.e. something ``json.dumps``
  accepts directly;
* :func:`from_jsonable` rebuilds the typed object tree from that
  representation, dispatching on the declared field types (``Optional``,
  ``List``/``Sequence``, ``Tuple``, ``Dict``, enums and nested dataclasses).

The codecs are compiled once per type, on first use rather than at import:
the first value of each runtime type builds that type's encoder, and the
first decode against each ``(hint, strict)`` pair builds its decoder, which
holds its fields' decoders in turn.  Nothing re-reads type hints or
re-dispatches on ``typing`` origins per value.  A codec is published to the
shared tables only once it is complete, so threads may decode concurrently.

``strict=True`` is the contract for externally submitted documents.  It
rejects keys a dataclass does not declare, and it raises
:class:`ValueError`, naming the field, for

* a ``bool``, ``float``, ``str`` or other non-integer where an ``int`` is
  declared;
* a non-string where a ``str`` is declared;
* a ``bool``, ``str`` or other non-number where a ``float`` is declared;
* a string, object or other non-list where a sequence is declared;
* a non-object where a mapping or a dataclass is declared;
* a fixed-length tuple with the wrong number of items.

Non-strict decoding (cache reads, which only ever see this module's own
output) checks none of this.

Classes opt in by inheriting :class:`JSONSerializable`, which adds the
``to_dict``/``from_dict``/``to_json``/``from_json`` quartet.  Round-tripping
is exact: ints stay ints and floats survive ``repr`` round-trips, so a result
loaded from the on-disk cache compares equal to the freshly simulated one.
:func:`write_json` is the one JSON file writer (:func:`write_json_text` its
atomic half, for text that is already encoded).
"""

from __future__ import annotations

import collections.abc
import dataclasses
import enum
import json
import os
import tempfile
import typing
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Set, Tuple, Type, TypeVar, Union

T = TypeVar("T")

#: A compiled encoder or decoder; ``None`` in its place means "use as is".
_Codec = Optional[Callable[[Any], Any]]

#: Encoder per runtime type.
_ENCODERS: Dict[type, _Codec] = {}

#: Decoder per ``(hint, strict)``.
_DECODERS: Dict[Tuple[Any, bool], _Codec] = {}

_SEQUENCE_ORIGINS = (
    list,
    tuple,
    collections.abc.Sequence,
    collections.abc.MutableSequence,
)
_MAPPING_ORIGINS = (dict, collections.abc.Mapping, collections.abc.MutableMapping)


# ------------------------------------------------------------------ encoding


def to_jsonable(value: Any) -> Any:
    """Lower ``value`` (dataclasses, enums, containers) to JSON-compatible types."""
    kind = type(value)
    try:
        encoder = _ENCODERS[kind]
    except KeyError:
        encoder = _ENCODERS[kind] = _build_encoder(kind)
    return value if encoder is None else encoder(value)


#: Types that encode as themselves.  Container encoders test item types
#: against this inline, sparing the call to :func:`to_jsonable` per number.
_PLAIN = frozenset({int, float, str, bool, type(None)})


def _build_encoder(kind: type) -> _Codec:
    if dataclasses.is_dataclass(kind):
        names = tuple(field.name for field in dataclasses.fields(kind))

        def encode_dataclass(value: Any) -> Dict[str, Any]:
            encoded = {}
            for name in names:
                item = getattr(value, name)
                encoded[name] = item if type(item) in _PLAIN else to_jsonable(item)
            return encoded

        return encode_dataclass
    if issubclass(kind, enum.Enum):
        return _encode_enum
    if issubclass(kind, dict):
        return _encode_dict
    if issubclass(kind, (list, tuple)):
        return _encode_list
    return None


def _encode_enum(value: enum.Enum) -> Any:
    return value.value


def _encode_dict(value: Dict[Any, Any]) -> Dict[str, Any]:
    return {
        _encode_key(key): item if type(item) in _PLAIN else to_jsonable(item)
        for key, item in value.items()
    }


def _encode_list(value: Any) -> list:
    return [item if type(item) in _PLAIN else to_jsonable(item) for item in value]


def _encode_key(key: Any) -> str:
    """Stringify a dict key the way :func:`_key_decoder` can undo."""
    if isinstance(key, enum.Enum):
        return str(key.value)
    return str(key)


# ------------------------------------------------------------------ decoding


def from_jsonable(hint: Any, data: Any, strict: bool = False) -> Any:
    """Rebuild a typed value from :func:`to_jsonable` output, guided by ``hint``.

    With ``strict=True``, unknown dataclass keys and wrongly typed values
    raise :class:`ValueError` (see the module docstring) instead of being
    dropped or passed through.  The experiment service uses this to turn a
    typo'd or mistyped field in a submitted document into a clean 400 rather
    than accepting (and mis-running) a spec the author never wrote.
    """
    decoder = _decoder(hint, strict)
    return data if decoder is None else decoder(data)


def _decoder(hint: Any, strict: bool) -> _Codec:
    """The published decoder for ``(hint, strict)``, compiled on first use."""
    key = (hint, strict)
    try:
        return _DECODERS[key]
    except KeyError:
        pass
    decoder = _compile(hint, strict, "value", set())
    _DECODERS[key] = decoder
    return decoder


def _compile(hint: Any, strict: bool, label: str, building: Set[type]) -> _Codec:
    """Build the decoder for ``hint``; ``label`` names the field in errors.

    ``building`` holds the dataclasses whose decoders this one compilation
    is still constructing, so a self-referential type resolves lazily
    instead of recursing forever.
    """
    if hint is Any or hint is None:
        return None
    origin = typing.get_origin(hint)
    args = typing.get_args(hint)
    if origin is Union:  # Optional[X] and general unions
        members = [arg for arg in args if arg is not type(None)]
        if len(members) != 1:
            return None
        inner = _compile(members[0], strict, label, building)
        if inner is None:
            return None
        return lambda data: None if data is None else inner(data)
    if origin in _SEQUENCE_ORIGINS or (origin is None and hint in (list, tuple)):
        as_tuple = origin is tuple or hint is tuple
        if as_tuple and args and args[-1] is not Ellipsis:
            return _fixed_tuple_decoder(args, strict, label, building)
        item_hint = args[0] if args else Any
        item = _compile(item_hint, strict, f"{label} item", building)
        return _sequence_decoder(item, as_tuple, strict, label)
    if origin in _MAPPING_ORIGINS or (origin is None and hint is dict):
        key_hint, value_hint = args if len(args) == 2 else (Any, Any)
        value = _compile(value_hint, strict, f"{label} value", building)
        return _mapping_decoder(_key_decoder(key_hint), value, strict, label)
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        return hint
    if dataclasses.is_dataclass(hint) and isinstance(hint, type):
        decoder = _dataclass_decoder(hint, strict, building)
        if not strict:
            return decoder
        return lambda data: decoder(
            _expect(isinstance(data, dict), label, "an object", data)
        )
    if strict and hint in _SCALARS:
        accepted, expected = _SCALARS[hint]
        return lambda data: _expect(
            isinstance(data, accepted) and not isinstance(data, bool),
            label,
            expected,
            data,
        )
    return None


#: Strict mode's scalar checks: declared type -> (accepted types, wording).
#: ``bool`` is a subclass of ``int`` and is rejected separately.
_SCALARS = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
}


def _expect(ok: bool, label: str, expected: str, data: Any) -> Any:
    """Return ``data`` if ``ok``, else raise the strict-mode type error."""
    if ok:
        return data
    scalar = isinstance(data, (bool, int, float, str, type(None)))
    shown = f" {data!r}" if scalar else ""
    raise ValueError(f"{label}: expected {expected}, got {type(data).__name__}{shown}")


def _sequence_decoder(item: _Codec, as_tuple: bool, strict: bool, label: str) -> _Codec:
    def decode_sequence(data: Any) -> Any:
        if strict:
            _expect(isinstance(data, (list, tuple)), label, "a list", data)
        items = list(data) if item is None else [item(entry) for entry in data]
        return tuple(items) if as_tuple else items

    return decode_sequence


def _fixed_tuple_decoder(
    args: Tuple[Any, ...], strict: bool, label: str, building: Set[type]
) -> _Codec:
    items = [
        _compile(arg, strict, f"{label}[{index}]", building)
        for index, arg in enumerate(args)
    ]

    def decode_tuple(data: Any) -> tuple:
        if strict:
            _expect(isinstance(data, (list, tuple)), label, "a list", data)
            if len(data) != len(items):
                raise ValueError(
                    f"{label}: expected {len(items)} items, got {len(data)}"
                )
        return tuple(
            entry if item is None else item(entry) for item, entry in zip(items, data)
        )

    return decode_tuple


def _mapping_decoder(key: _Codec, value: _Codec, strict: bool, label: str) -> _Codec:
    def decode_mapping(data: Any) -> Dict[Any, Any]:
        if strict:
            _expect(isinstance(data, dict), label, "an object", data)
        if key is None and value is None:
            return dict(data)
        return {
            (name if key is None else key(name)): (
                item if value is None else value(item)
            )
            for name, item in data.items()
        }

    return decode_mapping


def _key_decoder(hint: Any) -> _Codec:
    """Undo the key stringification JSON forces on non-string dict keys."""
    if hint is int or hint is float:
        return hint
    if isinstance(hint, type) and issubclass(hint, enum.Enum):

        def decode_enum_key(key: str) -> Any:
            try:
                return hint(key)
            except ValueError:
                return hint(int(key))  # int-valued enums stringify as digits

        return decode_enum_key
    return None


def _dataclass_decoder(
    cls: type, strict: bool, building: Set[type]
) -> Callable[[Any], Any]:
    key = (cls, strict)
    decoder = _DECODERS.get(key)
    if decoder is not None:
        return decoder
    if cls in building:
        # A field of ``cls``'s own type: look the finished decoder up (or
        # build it) when the first such value arrives.
        return lambda data: _decoder(cls, strict)(data)
    building.add(cls)
    hints = typing.get_type_hints(cls)
    fields = tuple(
        (
            field.name,
            _compile(
                hints.get(field.name, Any),
                strict,
                f"{cls.__name__}.{field.name}",
                building,
            ),
        )
        for field in dataclasses.fields(cls)
        if field.init
    )
    known = frozenset(name for name, _ in fields)
    typed = tuple((name, decoder) for name, decoder in fields if decoder is not None)

    def decode_dataclass(data: Any) -> Any:
        if not isinstance(data, dict):
            raise TypeError(
                f"cannot rebuild {cls.__name__} from {type(data).__name__}; "
                "expected a dict"
            )
        if data.keys() <= known:
            kwargs = dict(data)
        elif strict:
            unknown = sorted(data.keys() - known)
            raise ValueError(
                f"unknown field(s) {', '.join(map(repr, unknown))} for "
                f"{cls.__name__}; valid fields: {', '.join(sorted(known))}"
            )
        else:
            kwargs = {name: value for name, value in data.items() if name in known}
        for name, field_decoder in typed:
            if name in kwargs:
                kwargs[name] = field_decoder(kwargs[name])
        return cls(**kwargs)

    _DECODERS[key] = decode_dataclass
    return decode_dataclass


# ------------------------------------------------------------------- mixin


class JSONSerializable:
    """Mixin adding a JSON round-trip to a dataclass.

    ``from_dict`` accepts the output of ``to_dict`` (or any dict with the
    same shape, e.g. parsed from a cache file) and rebuilds a fully typed
    instance, recursing into nested dataclasses, lists and mappings.
    """

    def to_dict(self) -> Dict[str, Any]:
        """Return a JSON-compatible dict representation of this object."""
        return to_jsonable(self)

    @classmethod
    def from_dict(cls: Type[T], data: Dict[str, Any], strict: bool = False) -> T:
        """Rebuild an instance from :meth:`to_dict` output.

        ``strict=True`` rejects unknown keys and wrongly typed values
        anywhere in the tree (see :func:`from_jsonable`) — the contract for
        externally submitted documents, where a silently dropped typo means
        running the wrong experiment.
        """
        return _decoder(cls, strict)(data)

    def to_json(self, **dumps_kwargs: Any) -> str:
        """Serialise to a JSON string."""
        return json.dumps(self.to_dict(), **dumps_kwargs)

    @classmethod
    def from_json(cls: Type[T], text: str) -> T:
        """Rebuild an instance from a JSON string."""
        return cls.from_dict(json.loads(text))


def canonical_json(value: Any) -> str:
    """Deterministic JSON encoding used for content-hash cache keys."""
    return json.dumps(to_jsonable(value), sort_keys=True, separators=(",", ":"))


def write_json(path: Union[str, Path], value: Any) -> str:
    """Write ``value`` to ``path`` as JSON, atomically; returns the text written.

    The text comes from ``json.dumps``, CPython's C encoder (``json.dump``
    to a file runs the pure-Python one, about 4x slower, for the same
    bytes), and is written by :func:`write_json_text`.
    """
    text = json.dumps(value)
    write_json_text(path, text)
    return text


def write_json_text(path: Union[str, Path], text: str) -> None:
    """Write already-encoded JSON ``text`` to ``path``, atomically.

    The text goes to a temp file beside ``path`` that is then renamed over
    it, so a reader, a crash or a second process sharing the directory never
    observes a half-written file.  The temp file's name starts with a dot,
    which :class:`~repro.simulation.engine.ResultCache` relies on to skip
    in-flight writes.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=".tmp-", suffix=".json"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
