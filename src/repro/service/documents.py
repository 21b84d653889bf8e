"""Job documents: the JSON shapes a tenant may submit to ``POST /v1/jobs``.

A document is ``{"kind": <kind>, "spec": {...}}`` where ``kind`` selects the
spec schema and execution path:

* ``sweep`` — a :class:`~repro.simulation.engine.SweepSpec` (benchmarks x
  variants grid, the ``repro sweep`` path);
* ``study`` — a :class:`~repro.simulation.study.StudySpec`, or the shorthand
  ``{"kind": "study", "study": "<registered name>", ...narrowing}`` which
  builds a registered study the way ``repro study run`` does;
* ``replay`` — a :class:`~repro.simulation.shard.ReplaySpec` (sharded
  single-trace replay with warmup-aware stitching).

Specs parse **strictly** (unknown fields are a 400, not silently dropped) and
validate registry names up front, so a malformed document is rejected at
admission — before it occupies a queue slot.  A parsed document can expand
itself into engine payloads *without running them*, which is how the server
reports cache-dedupe accounting in the admission response.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.errors import BadSpecError
from repro.simulation.engine import ExperimentEngine, SweepSpec, sweep_jobs
from repro.simulation.shard import ReplaySpec, run_replay_spec, shard_jobs
from repro.simulation.study import StudySpec, build_study, run_study, study_jobs
from repro.workloads.source import FileTraceSource, read_trace_header

#: Document kinds, in the order they are documented.
DOCUMENT_KINDS = ("sweep", "study", "replay")

#: ``progress(done, total, kind)`` — the engine's per-cell callback shape.
CellProgress = Callable[[int, int, str], None]


class ParsedDocument:
    """A validated job document, ready to expand (for dedupe) or execute."""

    def __init__(self, kind: str, spec: Any, document: Dict[str, Any]) -> None:
        self.kind = kind
        self.spec = spec
        #: The normalised document (what the journal persists): rebuilding it
        #: from the parsed spec — rather than echoing the submission — means
        #: a resumed job re-parses exactly what was validated.
        self.document = document

    def describe(self) -> str:
        """One line for logs and job listings."""
        if self.kind == "sweep":
            return (
                f"sweep: {len(self.spec.resolved_workloads())} workloads x "
                f"{len(self.spec.resolved_variants())} variants "
                f"@ {self.spec.num_uops} uops"
            )
        if self.kind == "study":
            return f"study {self.spec.name!r} @ {self.spec.num_uops} uops"
        return (
            f"replay {self.spec.trace_file} [{self.spec.variant}] "
            f"x{self.spec.shards} shards"
        )

    # ------------------------------------------------------------ expansion

    def expand_payloads(self, engine: ExperimentEngine) -> List[Dict[str, Any]]:
        """The engine payloads this document will run, in execution order."""
        if self.kind == "sweep":
            return engine.expand_job_payloads(sweep_jobs(self.spec, engine))
        if self.kind == "study":
            return engine.expand_job_payloads(study_jobs(self.spec, engine))
        source = FileTraceSource(self.spec.trace_file)
        return engine.expand_job_payloads(
            shard_jobs(
                source,
                self.spec.plan(source.length),
                self.spec.variant,
                max_cycles=self.spec.max_cycles,
                probes=self.spec.probes,
            )
        )

    def cache_probe(self, engine: ExperimentEngine) -> Dict[str, int]:
        """Admission-time dedupe accounting: ``{"total": N, "cached": H}``.

        Expansion is the last admission check: a spec that parses but cannot
        expand (an unknown config override, a non-positive trace length) is
        as bad a document as one that fails :func:`parse_document`.
        """
        with _bad_spec(self.kind):
            payloads = self.expand_payloads(engine)
        cached, total = engine.cache_probe(payloads)
        return {"total": total, "cached": cached}

    # ------------------------------------------------------------ execution

    def execute(
        self,
        engine: ExperimentEngine,
        progress: Optional[CellProgress] = None,
        executor=None,
    ) -> Dict[str, Any]:
        """Run the document through ``engine`` and return its result document.

        The result is the JSON-able ``to_dict`` of the kind's native result
        type (:class:`SweepResult` / :class:`StudyResult` /
        :class:`ShardedRunResult`), so clients rebuild the same objects the
        in-process APIs return.  ``executor`` is the engine's cell-batch
        execution seam (see :meth:`ExperimentEngine.run_jobs`) — the server
        passes its fleet coordinator here when remote workers are registered.
        """
        if self.kind == "sweep":
            result = engine.run_sweep(self.spec, progress=progress, executor=executor)
        elif self.kind == "study":
            result = run_study(
                self.spec, engine=engine, cell_progress=progress, executor=executor
            )
        else:
            result = run_replay_spec(
                self.spec, engine=engine, progress=progress, executor=executor
            )
        return result.to_dict()


def parse_document(data: Any) -> ParsedDocument:
    """Parse and validate a submitted job document.

    Every rejection raises :class:`~repro.errors.BadSpecError` with a
    client-facing message — the server maps it to HTTP 400, the CLI to exit
    code 2.  Validation covers JSON shape, unknown spec fields (strict
    serde), registry names, shard-plan bounds, and — for replays — that the
    trace file exists and has a readable header.
    """
    if not isinstance(data, dict):
        raise BadSpecError(
            f"job document must be a JSON object, got {type(data).__name__}"
        )
    kind = data.get("kind")
    if kind not in DOCUMENT_KINDS:
        raise BadSpecError(
            f"unknown document kind {kind!r}; expected one of "
            f"{', '.join(DOCUMENT_KINDS)}"
        )
    with _bad_spec(kind):
        if kind == "study" and "study" in data:
            spec = _build_named_study(data)
        else:
            spec = _parse_spec(kind, data)
        _validate(kind, spec)
    return ParsedDocument(kind, spec, {"kind": kind, "spec": spec.to_dict()})


@contextmanager
def _bad_spec(kind: str) -> Iterator[None]:
    """Re-raise validation errors as a client-facing :class:`BadSpecError`."""
    try:
        yield
    except BadSpecError:
        raise
    except (KeyError, ValueError, TypeError, OSError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        raise BadSpecError(f"invalid {kind} document: {message}") from exc


_SPEC_TYPES = {"sweep": SweepSpec, "study": StudySpec, "replay": ReplaySpec}


def _parse_spec(kind: str, data: Dict[str, Any]) -> Any:
    spec_data = data.get("spec")
    if not isinstance(spec_data, dict):
        raise BadSpecError(
            f"{kind} document needs a 'spec' object "
            f"(got {type(spec_data).__name__})"
        )
    unknown = sorted(set(data) - {"kind", "spec"})
    if unknown:
        raise BadSpecError(
            f"unexpected top-level key(s) {', '.join(map(repr, unknown))} "
            f"in {kind} document"
        )
    return _SPEC_TYPES[kind].from_dict(spec_data, strict=True)


def _build_named_study(data: Dict[str, Any]) -> StudySpec:
    """The ``{"kind": "study", "study": NAME, ...}`` shorthand."""
    allowed = {"kind", "study", "num_uops", "workloads", "variants"}
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise BadSpecError(
            f"unexpected key(s) {', '.join(map(repr, unknown))} in named-study "
            f"document; allowed: {', '.join(sorted(allowed - {'kind'}))}"
        )
    return build_study(
        data["study"],
        num_uops=data.get("num_uops"),
        workloads=data.get("workloads"),
        variants=data.get("variants"),
    )


def _validate(kind: str, spec: Any) -> None:
    """Registry-name and bounds validation, before a queue slot is taken."""
    if kind == "sweep":
        spec.resolved_workloads()
        spec.resolved_variants()
        spec.resolved_probes()
    elif kind == "study":
        spec.resolved_workloads()
        spec.resolved_variants()
        spec.expand()  # validates axes + override field names
    else:
        from repro.registry import PROBE_REGISTRY, VARIANT_REGISTRY

        spec.validate()
        VARIANT_REGISTRY.get(spec.variant)
        for probe in spec.probes:
            PROBE_REGISTRY.get(probe)
        header = read_trace_header(spec.trace_file)  # raises if missing/corrupt
        if header["count"] <= 0:
            raise BadSpecError(f"trace {spec.trace_file} is empty")


__all__ = ["CellProgress", "DOCUMENT_KINDS", "ParsedDocument", "parse_document"]
