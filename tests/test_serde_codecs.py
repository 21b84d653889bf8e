"""The compiled serde codecs against the reflective reference they replaced.

``reference_to_jsonable`` / ``reference_from_jsonable`` below are the
reflective codecs that walked type hints and ``dataclasses.fields`` per
value.  The compiled codecs must produce the same dicts and rebuild equal
objects on real results (a Figure-2 sweep, a study, a sharded replay and a
co-runner cell) and on every spec class, and strict mode must keep the
reference's unknown-field messages while adding the type checks.
"""

import collections.abc
import dataclasses
import enum
import json
import sys
import threading
import typing
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import pytest

from repro import serde
from repro.memory.dram import DRAMConfig
from repro.memory.hierarchy import HierarchyConfig
from repro.registry import build_workload
from repro.serde import from_jsonable, to_jsonable, write_json
from repro.simulation.engine import ExperimentEngine, JobSpec, SweepResult, SweepSpec
from repro.simulation.golden import DEFAULT_GOLDEN_VARIANTS, DEFAULT_GOLDEN_WORKLOADS
from repro.simulation.multicore import CoreAssignment, MultiCoreSpec
from repro.simulation.shard import (
    ReplaySpec,
    ShardedRunResult,
    plan_shards,
    run_sharded,
)
from repro.simulation.simulator import SimulationRequest
from repro.simulation.study import (
    AxisPoint,
    StudyAxis,
    StudyResult,
    StudySpec,
    build_study,
    run_study,
)
from repro.uarch.config import CoreConfig
from repro.workloads.source import FileTraceSource, write_trace_file

# ------------------------------------------------------ reflective reference


def reference_to_jsonable(value: Any) -> Any:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: reference_to_jsonable(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        return {
            _reference_encode_key(key): reference_to_jsonable(item)
            for key, item in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [reference_to_jsonable(item) for item in value]
    return value


def reference_from_jsonable(hint: Any, data: Any, strict: bool = False) -> Any:
    if hint is Any or hint is None:
        return data
    origin = typing.get_origin(hint)
    if origin is Union:
        args = [arg for arg in typing.get_args(hint) if arg is not type(None)]
        if data is None:
            return None
        if len(args) == 1:
            return reference_from_jsonable(args[0], data, strict)
        return data
    sequence_origins = (
        list,
        tuple,
        collections.abc.Sequence,
        collections.abc.MutableSequence,
    )
    if origin in sequence_origins or (origin is None and hint in (list, tuple)):
        args = typing.get_args(hint)
        if (origin is tuple or hint is tuple) and args and args[-1] is not Ellipsis:
            return tuple(
                reference_from_jsonable(arg, item, strict)
                for arg, item in zip(args, data)
            )
        item_hint = args[0] if args else Any
        items = [reference_from_jsonable(item_hint, item, strict) for item in data]
        return tuple(items) if origin is tuple or hint is tuple else items
    mapping_origins = (dict, collections.abc.Mapping, collections.abc.MutableMapping)
    if origin in mapping_origins or (origin is None and hint is dict):
        args = typing.get_args(hint)
        key_hint = args[0] if len(args) == 2 else Any
        value_hint = args[1] if len(args) == 2 else Any
        return {
            _reference_decode_key(key_hint, key): reference_from_jsonable(
                value_hint, item, strict
            )
            for key, item in data.items()
        }
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        return hint(data)
    if dataclasses.is_dataclass(hint) and isinstance(hint, type):
        return _reference_dataclass(hint, data, strict)
    return data


def _reference_encode_key(key: Any) -> str:
    if isinstance(key, enum.Enum):
        return str(key.value)
    return str(key)


def _reference_decode_key(hint: Any, key: str) -> Any:
    if hint is int:
        return int(key)
    if hint is float:
        return float(key)
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        try:
            return hint(key)
        except ValueError:
            return hint(int(key))
    return key


def _reference_dataclass(cls, data: Any, strict: bool = False):
    if not isinstance(data, dict):
        raise TypeError(
            f"cannot rebuild {cls.__name__} from {type(data).__name__}; expected a dict"
        )
    if strict:
        known = {field.name for field in dataclasses.fields(cls) if field.init}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown field(s) {', '.join(map(repr, unknown))} for "
                f"{cls.__name__}; valid fields: {', '.join(sorted(known))}"
            )
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for field in dataclasses.fields(cls):
        if not field.init or field.name not in data:
            continue
        kwargs[field.name] = reference_from_jsonable(
            hints.get(field.name, Any), data[field.name], strict
        )
    return cls(**kwargs)


def assert_matches_reference(obj: Any) -> None:
    """Compiled encode == reference encode; compiled decode == reference decode."""
    encoded = obj.to_dict()
    assert encoded == reference_to_jsonable(obj)
    # Byte-level too: dict equality ignores key order, the files do not.
    assert json.dumps(encoded) == json.dumps(reference_to_jsonable(obj))
    data = json.loads(json.dumps(encoded))
    rebuilt = type(obj).from_dict(data)
    assert rebuilt == reference_from_jsonable(type(obj), data)
    assert rebuilt == obj


# ------------------------------------------------------------- real results


@pytest.fixture(scope="module")
def figure2_sweep() -> SweepResult:
    spec = SweepSpec(
        workloads=list(DEFAULT_GOLDEN_WORKLOADS),
        variants=list(DEFAULT_GOLDEN_VARIANTS),
        num_uops=300,
    )
    return ExperimentEngine().run_sweep(spec)


def test_figure2_sweep_matches_reference(figure2_sweep):
    assert len(figure2_sweep.comparison.benchmarks) * len(DEFAULT_GOLDEN_VARIANTS) == 30
    assert_matches_reference(figure2_sweep)
    for entry in figure2_sweep.comparison.benchmarks:
        for result in entry.results.values():
            assert_matches_reference(result)


def test_study_matches_reference():
    spec = build_study("rob-scaling", num_uops=300, workloads=["mcf"])
    result = run_study(spec, engine=ExperimentEngine())
    assert isinstance(result, StudyResult)
    assert_matches_reference(spec)
    assert_matches_reference(result)


def test_sharded_replay_matches_reference(tmp_path):
    path = tmp_path / "milc.trc"
    write_trace_file(path, build_workload("milc", num_uops=600))
    source = FileTraceSource(path)
    result = run_sharded(
        source, plan_shards(source.length, 3, 50), "pre", engine=ExperimentEngine()
    )
    assert isinstance(result, ShardedRunResult) and len(result.shards) == 3
    assert_matches_reference(result)


def test_co_runner_cell_matches_reference():
    job = JobSpec(
        workload="bwaves",
        variant="pre",
        num_uops=300,
        multicore=MultiCoreSpec(cores=[CoreAssignment(workload="mcf", num_uops=200)]),
    )
    (result,) = ExperimentEngine().run_jobs([job])
    assert len(result.cores) == 2 and result.uncore is not None
    assert_matches_reference(result)


SPECS = {
    "sweep": SweepSpec(
        workloads=["mcf", "milc"],
        variants=["ooo", "pre"],
        num_uops=500,
        max_cycles=9_000,
        configs=[{}, {"rob_size": 64}],
        probes=["stall_breakdown"],
        multicore=MultiCoreSpec(
            cores=[CoreAssignment(workload="mcf", variant="pre", num_uops=400)],
            address_stride=1 << 28,
        ),
    ),
    "study": StudySpec(
        name="custom",
        description="every field set",
        workloads=["mcf"],
        variants=["pre", "runahead"],
        axes=[
            StudyAxis(
                name="mix",
                points=[
                    AxisPoint(
                        label="a",
                        core={"rob_size": 128},
                        hierarchy={"dram.controller_latency_cycles": 20},
                        multicore={"co_workload": "milc", "co_runners": 1},
                    )
                ],
            )
        ],
        num_uops=700,
        max_cycles=50_000,
        base_core={"emq_entries": 512},
        base_hierarchy={"mshr_entries": 16},
        probes=["stall_breakdown"],
    ),
    "replay": ReplaySpec(
        trace_file="trace.trc", variant="runahead", shards=4, warmup_uops=100,
        max_cycles=1_000, probes=["stall_breakdown"],
    ),
    "job": JobSpec(
        workload="mcf",
        variant="ooo",
        num_uops=900,
        config=CoreConfig(rob_size=96, frequency_ghz=3.1),
        hierarchy_config=HierarchyConfig(
            mshr_entries=8, prefetcher="stride", dram=DRAMConfig(num_banks=4)
        ),
        max_cycles=12_345,
        probes=["stall_breakdown"],
        window=(100, 400),
        warmup_uops=50,
    ),
    "request": SimulationRequest(
        variant="pre",
        config=CoreConfig(sst_entries=64),
        hierarchy_config=HierarchyConfig(prefetcher="nextline"),
        max_cycles=777,
        probes=["stall_breakdown"],
        warmup_uops=10,
    ),
}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_spec_with_every_field_set_matches_reference(name):
    spec = SPECS[name]
    assert_matches_reference(spec)
    # What strict admission accepts, the reference strict decoder accepts too.
    data = json.loads(json.dumps(spec.to_dict()))
    assert type(spec).from_dict(data, strict=True) == reference_from_jsonable(
        type(spec), data, strict=True
    )


# ------------------------------------------------------------- strict mode


UNKNOWN_FIELD_DOCS = {
    "top": (SweepSpec, {"workloads": ["mcf"], "bogus": 1}),
    "nested": (SweepSpec, {"workloads": ["mcf"], "multicore": {"cores": [], "x": 1}}),
    "list-item": (
        SweepSpec,
        {"workloads": ["mcf"], "multicore": {"cores": [{"workload": "mcf", "y": 2}]}},
    ),
    "deep": (
        StudySpec,
        {"name": "s", "axes": [{"name": "a", "points": [{"label": "p", "z": 3}]}]},
    ),
}


@pytest.mark.parametrize("name", sorted(UNKNOWN_FIELD_DOCS))
def test_strict_unknown_field_message_is_unchanged_at_every_depth(name):
    cls, data = UNKNOWN_FIELD_DOCS[name]
    with pytest.raises(ValueError) as expected:
        reference_from_jsonable(cls, data, strict=True)
    with pytest.raises(ValueError) as actual:
        cls.from_dict(data, strict=True)
    assert str(actual.value) == str(expected.value)
    assert "unknown field(s)" in str(actual.value)


@dataclasses.dataclass
class _Typed:
    count: int = 0
    name: str = ""
    ratio: float = 0.0
    items: List[str] = dataclasses.field(default_factory=list)
    limits: Dict[str, int] = dataclasses.field(default_factory=dict)
    child: Optional[DRAMConfig] = None
    pair: Tuple[int, int] = (0, 0)
    rows: Sequence[Dict[str, Any]] = ()


WRONGLY_TYPED = {
    "float-for-int": ({"count": 1.5}, "_Typed.count: expected an integer"),
    "bool-for-int": ({"count": True}, "_Typed.count: expected an integer"),
    "str-for-int": ({"count": "3"}, "_Typed.count: expected an integer"),
    "int-for-str": ({"name": 3}, "_Typed.name: expected a string"),
    "bool-for-float": ({"ratio": False}, "_Typed.ratio: expected a number"),
    "str-for-float": ({"ratio": "0.5"}, "_Typed.ratio: expected a number"),
    "str-for-list": ({"items": "abc"}, "_Typed.items: expected a list"),
    "object-for-list": ({"items": {"a": 1}}, "_Typed.items: expected a list"),
    "int-in-list": ({"items": ["a", 1]}, "_Typed.items item: expected a string"),
    "list-for-mapping": ({"limits": [1]}, "_Typed.limits: expected an object"),
    "str-in-mapping": (
        {"limits": {"a": "1"}}, "_Typed.limits value: expected an integer"
    ),
    "int-for-dataclass": ({"child": 4}, "_Typed.child: expected an object"),
    "nested-field": ({"child": {"num_banks": 2.0}}, "DRAMConfig.num_banks: expected"),
    "short-tuple": ({"pair": [1]}, "_Typed.pair: expected 2 items, got 1"),
    "long-tuple": ({"pair": [1, 2, 3]}, "_Typed.pair: expected 2 items, got 3"),
    "str-in-tuple": ({"pair": [1, "2"]}, r"_Typed.pair\[1\]: expected an integer"),
    "object-for-sequence": ({"rows": {"a": 1}}, "_Typed.rows: expected a list"),
    "int-in-sequence": ({"rows": [5]}, "_Typed.rows item: expected an object"),
}


@pytest.mark.parametrize("name", sorted(WRONGLY_TYPED))
def test_strict_mode_rejects_wrongly_typed_values(name):
    data, message = WRONGLY_TYPED[name]
    with pytest.raises(ValueError, match=message):
        from_jsonable(_Typed, data, strict=True)


def test_strict_mode_accepts_well_typed_values():
    data = {
        "count": 3, "name": "x", "ratio": 2, "items": ["a"], "limits": {"a": 1},
        "child": {"num_banks": 2}, "pair": [1, 2], "rows": [{"k": 1.5}],
    }
    typed = from_jsonable(_Typed, data, strict=True)
    assert typed.ratio == 2 and isinstance(typed.ratio, int)  # ints stay ints
    assert typed.pair == (1, 2) and typed.child == DRAMConfig(num_banks=2)
    assert from_jsonable(Optional[int], None, strict=True) is None


def test_non_strict_decoding_does_not_check_types():
    typed = from_jsonable(_Typed, {"count": 1.5, "name": 3, "pair": [1, 2, 3]})
    assert (typed.count, typed.name, typed.pair) == (1.5, 3, (1, 2))
    # Keys a dataclass does not take are dropped, as the reference does.
    data = {**DRAMConfig(num_banks=4).to_dict(), "retired_field": 1}
    assert DRAMConfig.from_dict(data) == reference_from_jsonable(DRAMConfig, data)
    assert DRAMConfig.from_dict(data) == DRAMConfig(num_banks=4)


def test_with_overrides_decodes_strictly():
    config = CoreConfig().with_overrides(rob_size=64)
    assert config.rob_size == 64 and config == CoreConfig(rob_size=64)
    with pytest.raises(ValueError, match="CoreConfig.rob_size: expected an integer"):
        CoreConfig().with_overrides(rob_size=64.5)
    with pytest.raises(ValueError, match="unknown field"):
        CoreConfig().with_overrides(rob_sz=64)


@dataclasses.dataclass
class _Node:
    value: int = 0
    children: List["_Node"] = dataclasses.field(default_factory=list)


def test_self_referential_dataclass_round_trips():
    tree = _Node(1, [_Node(2, [_Node(3)]), _Node(4)])
    data = to_jsonable(tree)
    assert data == reference_to_jsonable(tree)
    assert from_jsonable(_Node, data) == tree
    assert from_jsonable(_Node, data, strict=True) == tree


# ------------------------------------------------------------- concurrency


def test_concurrent_first_use_never_sees_a_partial_codec(figure2_sweep, monkeypatch):
    data = reference_to_jsonable(figure2_sweep)
    expected = reference_from_jsonable(SweepResult, data)
    outcomes: List[Any] = []

    def decode(barrier: threading.Barrier) -> None:
        barrier.wait(timeout=30)
        try:
            outcomes.append((SweepResult.from_dict(data), to_jsonable(expected)))
        except Exception as exc:  # noqa: BLE001 — reported by the assertion below
            outcomes.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(6):
            # Empty tables: every thread races to compile the same codecs.
            monkeypatch.setattr(serde, "_ENCODERS", {})
            monkeypatch.setattr(serde, "_DECODERS", {})
            barrier = threading.Barrier(8)
            threads = [
                threading.Thread(target=decode, args=(barrier,)) for _ in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert len(outcomes) == 6 * 8
    for outcome in outcomes:
        assert not isinstance(outcome, Exception), outcome
        assert outcome == (expected, data)


# -------------------------------------------------------------- the writer


def test_write_json_matches_json_dump_and_leaves_no_temp_files(tmp_path, figure2_sweep):
    document = figure2_sweep.to_dict()
    path = tmp_path / "result.json"
    write_json(path, document)
    assert path.read_text(encoding="utf-8") == json.dumps(document)
    write_json(path, {"replaced": True})
    assert json.loads(path.read_text(encoding="utf-8")) == {"replaced": True}
    with pytest.raises(TypeError):
        write_json(path, {"unencodable": object()})
    assert [entry.name for entry in tmp_path.iterdir()] == ["result.json"]
    assert json.loads(path.read_text(encoding="utf-8")) == {"replaced": True}
