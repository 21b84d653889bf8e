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

Specs parse **strictly** (unknown fields and wrongly typed values are a 400,
not silently dropped or coerced) and validate registry names up front, so a
malformed document is rejected at admission — before it occupies a queue
slot.  One method builds a parsed document's engine jobs
(:meth:`ParsedDocument.jobs`): expanding them *without running them* is how
the server reports cache-dedupe accounting in the admission response, and
running them through the engine and folding the results into one JSON
document is how it executes the job (:meth:`ParsedDocument.execute`).
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.errors import BadSpecError
from repro.simulation.engine import (
    ExperimentEngine,
    JobSpec,
    SweepSpec,
    sweep_jobs,
    sweep_result_json,
)
from repro.simulation.shard import ReplaySpec, shard_jobs, stitch
from repro.simulation.study import StudySpec, build_study, study_jobs, study_result
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

    def jobs(self, engine: ExperimentEngine) -> List[JobSpec]:
        """The engine jobs this document runs, in execution order."""
        if self.kind == "sweep":
            return sweep_jobs(self.spec, engine)
        if self.kind == "study":
            return study_jobs(self.spec, engine)
        source = FileTraceSource(self.spec.trace_file)
        return shard_jobs(
            source,
            self.spec.plan(source.length),
            self.spec.variant,
            max_cycles=self.spec.max_cycles,
            probes=self.spec.probes,
        )

    def cache_probe(self, engine: ExperimentEngine) -> Dict[str, int]:
        """Admission-time dedupe accounting: ``{"total": N, "cached": H}``.

        Expansion is the last admission check: a spec that parses but cannot
        expand (an unknown config override, a non-positive trace length) is
        as bad a document as one that fails :func:`parse_document`.
        """
        with _bad_spec(self.kind):
            payloads = engine.expand_job_payloads(self.jobs(engine))
        cached, total = engine.cache_probe(payloads)
        return {"total": total, "cached": cached}

    def execute(
        self,
        engine: ExperimentEngine,
        progress: Optional[CellProgress] = None,
        executor=None,
    ) -> str:
        """Run the document through ``engine`` and return its result document's JSON.

        One engine call over :meth:`jobs`, with ``progress`` and ``executor``
        passed through (the server passes its fleet coordinator's executor),
        then the kind's fold.  The result is the ``json.dumps`` text of the
        ``to_dict`` of the kind's native result type (:class:`SweepResult` /
        :class:`StudyResult` / :class:`ShardedRunResult`), so clients rebuild
        the same objects the in-process APIs return.  A sweep's document is
        spliced from its cells' stored texts
        (:meth:`~ExperimentEngine.run_job_texts`,
        :func:`~repro.simulation.engine.sweep_result_json`), so a cached cell
        is never decoded into a result object; studies and replays decode,
        because their folds compute from the stats.
        """
        jobs = self.jobs(engine)
        if self.kind == "sweep":
            texts = engine.run_job_texts(jobs, progress=progress, executor=executor)
            return sweep_result_json(self.spec, texts)
        results = engine.run_jobs(jobs, progress=progress, executor=executor)
        if self.kind == "study":
            result = study_result(self.spec, results, engine.last_run_stats)
        else:
            source = jobs[0].trace
            result = stitch(
                self.spec.plan(source.length), source.name, self.spec.variant, results
            )
        return json.dumps(result.to_dict())


def parse_document(data: Any) -> ParsedDocument:
    """Parse and validate a submitted job document.

    Every rejection raises :class:`~repro.errors.BadSpecError` with a
    client-facing message — the server maps it to HTTP 400, the CLI to exit
    code 2.  Validation covers JSON shape, unknown spec fields and wrongly
    typed values (strict serde), registry names, shard-plan bounds, and —
    for replays — that the trace file exists and has a readable header.
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
    """The ``{"kind": "study", "study": NAME, ...}`` shorthand.

    The narrowing keys override the registered spec's fields through the
    strict decoder, exactly as if the full spec had been submitted, so a
    mistyped value is rejected here rather than when the job runs.
    """
    narrowing = ("num_uops", "workloads", "variants")
    allowed = {"kind", "study", *narrowing}
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise BadSpecError(
            f"unexpected key(s) {', '.join(map(repr, unknown))} in named-study "
            f"document; allowed: {', '.join(sorted(allowed - {'kind'}))}"
        )
    spec = build_study(data["study"]).to_dict()
    spec.update({key: data[key] for key in narrowing if data.get(key) is not None})
    return StudySpec.from_dict(spec, strict=True)


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
