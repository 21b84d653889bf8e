"""``python -m repro`` — the reproduction's command-line interface.

Six subcommands drive the experiment engine:

* ``python -m repro list`` — show every registered workload, core variant and
  instrumentation probe;
* ``python -m repro sweep`` — run a benchmarks x variants sweep (optionally in
  parallel and against a result cache) and print the paper's Figure 2/3
  tables; ``--output`` saves the full result for later reporting;
* ``python -m repro report`` — re-render figures/summary from a saved sweep
  without re-simulating anything;
* ``python -m repro trace record|info|replay`` — stream a workload into a
  compressed trace file, inspect it, and replay it through the engine;
* ``python -m repro bench`` — measure simulator throughput (wall-clock,
  uops/s, cycles/s, peak RSS) over a fixed workload x variant matrix, write
  a ``BENCH_<n>.json`` report, and optionally ``--compare`` against a
  previous report (exits nonzero on digest divergence, and on throughput
  regressions beyond ``--max-slowdown``);
* ``python -m repro study run|list|report`` — expand a registered
  sensitivity study (ROB scaling, EMQ capacity, MSHR x prefetcher, DRAM
  latency, ...) into its cartesian product of configurations, run every cell
  through the cached engine, and render markdown/CSV curves;
* ``python -m repro serve`` — run the always-on experiment service: a
  durable HTTP/JSON job queue in front of the engine with a shared result
  cache (see :mod:`repro.service`);
* ``python -m repro submit|status`` — the service's thin client: post a
  sweep/study/replay job document and follow its progress events;
* ``python -m repro cache stats|prune`` — inspect a result cache and
  LRU-evict it down to a byte bound, locally or through a running service;
* ``python -m repro lint`` — run the repo-invariant static-analysis pass
  (determinism sanitizer, cache-schema drift gate, hot-path lint, taxonomy /
  privacy / probe hygiene) over ``src/repro``.

Exit codes are a stable contract (``repro.errors``): 0 success, 1 regression
gate, 2 bad spec/arguments, 3 simulation failure, 4 lint findings, 75 service
busy (``EX_TEMPFAIL``), 130 interrupted.

Reproducing the paper end to end::

    python -m repro sweep --benchmarks all --uops 5000 \
        --workers 4 --cache-dir .repro-cache --output sweep.json
    python -m repro report sweep.json --figure 2
    python -m repro report sweep.json --figure 3

Record/replay round trip::

    python -m repro trace record --workload mcf --uops 5000 --output mcf.trc
    python -m repro trace info mcf.trc --stats
    python -m repro trace replay mcf.trc --variants pre,runahead

Tracking simulator performance::

    python -m repro bench                      # writes BENCH_<n>.json
    python -m repro bench --compare BENCH_0.json
    python -m repro bench --quick              # CI smoke subset
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import json
import os
import signal
import sys
from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.report import (
    format_energy_figure,
    format_performance_figure,
    summarize_comparison,
)
from repro.errors import (
    EXIT_BAD_SPEC,
    EXIT_BUSY,
    EXIT_INTERRUPTED,
    EXIT_LINT_FINDINGS,
    EXIT_OK,
    EXIT_REGRESSION,
    EXIT_SIM_FAILURE,
    BadSpecError,
    SimulationError,
)
from repro.service.client import DEFAULT_SERVICE_URL, ServiceClient, ServiceError
from repro.uarch.config import CoreConfig
from repro.registry import (
    PROBE_REGISTRY,
    VARIANT_REGISTRY,
    WORKLOAD_REGISTRY,
    build_workload_source,
)
from repro.simulation.engine import (
    ExperimentEngine,
    JobSpec,
    ResultCache,
    SweepResult,
    SweepSpec,
    assemble_comparison,
    resolve_variants,
)
from repro.simulation.golden import DEFAULT_GOLDEN_WORKLOADS
from repro.workloads.source import (
    FileTraceSource,
    read_trace_header,
    streaming_trace_stats,
    trace_file_digest,
    write_trace_file,
)


def _parse_names(raw: str, available: Sequence[str], kind: str) -> List[str]:
    """Parse a comma-separated name list, with ``all`` meaning every name."""
    if raw.strip() == "all":
        return list(available)
    names = [name.strip() for name in raw.split(",") if name.strip()]
    if not names:
        raise BadSpecError(f"no {kind} selected (got {raw!r})")
    return names


def _parse_overrides(pairs: Sequence[str]) -> Dict[str, Any]:
    """Parse repeated ``--set key=value`` flags into CoreConfig overrides."""
    valid = {field.name for field in dataclasses.fields(CoreConfig)}
    overrides: Dict[str, Any] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        key = key.strip()
        if not sep:
            raise BadSpecError(f"--set expects key=value, got {pair!r}")
        if key not in valid:
            raise BadSpecError(
                f"--set: unknown CoreConfig field {key!r}; "
                f"valid fields: {', '.join(sorted(valid))}"
            )
        try:
            overrides[key] = ast.literal_eval(value.strip())
        except (ValueError, SyntaxError):
            # Every CoreConfig field is numeric, so an unparseable value is a
            # user error, not a string field.
            raise BadSpecError(
                f"--set: could not parse value {value.strip()!r} for {key!r} "
                f"(expected a number)"
            )
    return overrides


def _parse_co_runners(pairs: Sequence[str]):
    """Parse repeated ``--co-runner WORKLOAD[:VARIANT]`` flags into a spec."""
    from repro.simulation.multicore import CoreAssignment, MultiCoreSpec

    if not pairs:
        return None
    cores = []
    for pair in pairs:
        workload, sep, variant = pair.partition(":")
        workload = workload.strip()
        variant = variant.strip() if sep else "ooo"
        if not workload:
            raise BadSpecError(
                f"--co-runner expects WORKLOAD[:VARIANT], got {pair!r}"
            )
        if workload not in WORKLOAD_REGISTRY.names():
            raise BadSpecError(
                f"--co-runner: unknown workload {workload!r}; "
                f"see 'python -m repro list'"
            )
        if variant not in VARIANT_REGISTRY.names():
            raise BadSpecError(
                f"--co-runner: unknown variant {variant!r}; "
                f"see 'python -m repro list'"
            )
        cores.append(CoreAssignment(workload=workload, variant=variant))
    return MultiCoreSpec(cores=cores)


def _print_comparison(comparison, figure: str) -> None:
    if figure in ("2", "all"):
        print(format_performance_figure(comparison))
        print()
    if figure in ("3", "all"):
        print(format_energy_figure(comparison))
        print()
    if figure in ("summary", "all"):
        print("Headline comparison "
              "(paper: RA +14.5%, RA-buffer +14.4%, PRE +35.5%, PRE+EMQ +28.6%):")
        print(summarize_comparison(comparison))


def _cmd_list(args: argparse.Namespace) -> int:
    print("Variants (figure order):")
    for entry in VARIANT_REGISTRY.entries():
        print(f"  {entry.name:18s} {entry.label:10s} {entry.description}")
    print()
    print("Workloads:")
    for entry in WORKLOAD_REGISTRY.entries():
        print(f"  {entry.name:18s} {entry.description}")
    print()
    print("Probes (attach with --probe):")
    for entry in PROBE_REGISTRY.entries():
        print(f"  {entry.name:18s} {entry.description}")
    from repro.simulation.study import STUDY_REGISTRY

    print()
    print("Sensitivity studies (run with 'python -m repro study run'):")
    for entry in STUDY_REGISTRY.entries():
        print(f"  {entry.name:26s} {entry.description}")
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    workloads = _parse_names(args.benchmarks, WORKLOAD_REGISTRY.names(), "benchmarks")
    variants = _parse_names(args.variants, VARIANT_REGISTRY.names(), "variants")
    multicore = _parse_co_runners(args.co_runner or [])
    spec = SweepSpec(
        workloads=workloads,
        variants=variants,
        num_uops=args.uops,
        max_cycles=args.max_cycles,
        configs=[_parse_overrides(args.set or [])],
        probes=list(args.probe or []),
        multicore=multicore,
    )
    engine = ExperimentEngine(workers=args.workers, cache_dir=args.cache_dir)
    print(
        f"sweeping {len(workloads)} benchmarks x {len(spec.resolved_variants())} variants "
        f"({args.uops} micro-ops each, {args.workers} worker(s)"
        + (f", cache: {args.cache_dir}" if args.cache_dir else "")
        + (
            f", {multicore.num_cores} cores/cell" if multicore is not None else ""
        )
        + ") ...",
        file=sys.stderr,
    )
    result = engine.run_sweep(spec)
    stats = engine.last_run_stats
    print(
        f"done: {stats.total_jobs} cells, {stats.simulated} simulated, "
        f"{stats.cache_hits} from cache\n",
        file=sys.stderr,
    )
    _print_comparison(result.comparison, args.figure)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(result.to_dict(), handle)
        print(f"\nfull sweep result written to {args.output}", file=sys.stderr)
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    with open(args.result, "r", encoding="utf-8") as handle:
        result = SweepResult.from_dict(json.load(handle))
    for cell in result.cells:
        if cell.overrides:
            print(f"configuration overrides: {cell.overrides}")
            print()
        _print_comparison(cell.comparison, args.figure)
    return EXIT_OK


def _cmd_trace_record(args: argparse.Namespace) -> int:
    source = build_workload_source(args.workload, num_uops=args.uops)
    count = write_trace_file(args.output, source, name=args.name or args.workload)
    digest = trace_file_digest(args.output)
    size = os.path.getsize(args.output)
    print(f"recorded {count} micro-ops of {args.workload!r} to {args.output}")
    print(f"  file size : {size} bytes ({size / max(count, 1):.2f} B/uop compressed)")
    print(f"  digest    : {digest}")
    return EXIT_OK


def _cmd_trace_info(args: argparse.Namespace) -> int:
    header = read_trace_header(args.trace)
    print(f"trace file : {args.trace}")
    print(f"  name     : {header['name']}")
    print(f"  micro-ops: {header['count']}")
    print(f"  format   : {header['format']} v{header['version']}")
    print(f"  digest   : {trace_file_digest(args.trace)}")
    if args.stats:
        stats = streaming_trace_stats(FileTraceSource(args.trace))
        print(f"  loads    : {stats.num_loads} ({stats.load_fraction:.1%})")
        print(f"  stores   : {stats.num_stores}")
        print(f"  branches : {stats.num_branches}")
        print(f"  unique PCs: {stats.unique_pcs} ({stats.unique_load_pcs} load PCs)")
        print(f"  footprint: {stats.footprint_bytes} bytes")
    return EXIT_OK


def _cmd_trace_replay(args: argparse.Namespace) -> int:
    variants = _parse_names(args.variants, VARIANT_REGISTRY.names(), "variants")
    if args.shards is not None:
        return _trace_replay_sharded(args, variants)
    if args.warmup_uops:
        raise BadSpecError("--warmup-uops only applies to sharded replay (--shards N)")
    engine = ExperimentEngine(workers=args.workers, cache_dir=args.cache_dir)
    sources = [FileTraceSource(path) for path in args.traces]
    names = [source.name for source in sources]
    print(
        f"replaying {len(sources)} trace file(s) ({', '.join(names)}) x "
        f"{len(variants)} variants ({args.workers} worker(s)"
        + (f", cache: {args.cache_dir}" if args.cache_dir else "")
        + ") ...",
        file=sys.stderr,
    )
    variants = resolve_variants(variants)
    jobs = [
        JobSpec(
            trace=source,
            variant=variant,
            max_cycles=args.max_cycles,
            probes=list(args.probe or []),
        )
        for source in sources
        for variant in variants
    ]
    comparison = assemble_comparison(names, variants, engine.run_jobs(jobs))
    stats = engine.last_run_stats
    print(
        f"done: {stats.total_jobs} cells, {stats.simulated} simulated, "
        f"{stats.cache_hits} from cache\n",
        file=sys.stderr,
    )
    _print_comparison(comparison, args.figure)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(comparison.to_dict(), handle)
        print(f"\nfull comparison written to {args.output}", file=sys.stderr)
    return EXIT_OK


def _trace_replay_sharded(args: argparse.Namespace, variants: List[str]) -> int:
    """``trace replay --shards N``: split each trace into windows and stitch."""
    from repro.simulation.shard import run_sharded

    if args.shards < 1:
        raise BadSpecError(f"--shards must be >= 1, got {args.shards}")
    engine = ExperimentEngine(workers=args.workers, cache_dir=args.cache_dir)
    sources = [FileTraceSource(path) for path in args.traces]
    names = [source.name for source in sources]
    print(
        f"sharded replay of {len(sources)} trace file(s) ({', '.join(names)}) x "
        f"{len(variants)} variants ({args.shards} shard(s), "
        f"{args.warmup_uops} warmup uops, {args.workers} worker(s)"
        + (f", cache: {args.cache_dir}" if args.cache_dir else "")
        + ") ...",
        file=sys.stderr,
    )
    total_jobs = simulated = cache_hits = 0
    output: Dict[str, Dict[str, Any]] = {}
    print(
        f"{'trace':12s} {'variant':16s} {'shards':>6s} {'uops':>10s} "
        f"{'cycles':>10s} {'IPC':>8s}  exact"
    )
    for source in sources:
        per_variant: Dict[str, Any] = {}
        for variant in variants:
            result = run_sharded(
                source,
                variant=variant,
                shards=args.shards,
                warmup_uops=args.warmup_uops,
                engine=engine,
                max_cycles=args.max_cycles,
                probes=list(args.probe or []),
            )
            stats = engine.last_run_stats
            total_jobs += stats.total_jobs
            simulated += stats.simulated
            cache_hits += stats.cache_hits
            per_variant[variant] = result.to_dict()
            print(
                f"{result.trace_name:12s} {variant:16s} {len(result.shards):6d} "
                f"{result.stitched_stats.committed_uops:10d} "
                f"{result.stitched_stats.cycles:10d} "
                f"{result.stitched_ipc:8.3f}  {'yes' if result.exact else 'no'}"
            )
        output[source.name] = per_variant
    print(
        f"done: {total_jobs} cells, {simulated} simulated, "
        f"{cache_hits} from cache\n",
        file=sys.stderr,
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(output, handle)
        print(f"\nsharded results written to {args.output}", file=sys.stderr)
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.simulation import perfbench

    if args.max_slowdown is not None and not args.compare:
        # A gate with no baseline silently checks nothing; fail fast so a
        # CI job that drops --compare cannot turn permanently green.
        raise BadSpecError("--max-slowdown requires --compare PREV.json")
    if args.shards is not None:
        return _bench_sharded(args, perfbench)
    if args.quick:
        default_workloads = perfbench.QUICK_BENCH_WORKLOADS
        default_variants = perfbench.QUICK_BENCH_VARIANTS
        default_uops = perfbench.QUICK_BENCH_UOPS
    else:
        default_workloads = perfbench.DEFAULT_BENCH_WORKLOADS
        default_variants = perfbench.DEFAULT_BENCH_VARIANTS
        default_uops = perfbench.DEFAULT_BENCH_UOPS
    # Explicit selections always win; --quick only changes the defaults.
    workloads = _parse_names(
        args.benchmarks or ",".join(default_workloads),
        WORKLOAD_REGISTRY.names(),
        "benchmarks",
    )
    variants = _parse_names(
        args.variants or ",".join(default_variants),
        VARIANT_REGISTRY.names(),
        "variants",
    )
    num_uops = args.uops if args.uops is not None else default_uops
    for name in workloads:
        WORKLOAD_REGISTRY.get(name)  # fail on typos before any simulation
    for name in variants:
        VARIANT_REGISTRY.get(name)
    print(
        f"benchmarking {len(workloads)} workloads x {len(variants)} variants "
        f"({num_uops} micro-ops/cell, best of {args.repeats}) ...",
        file=sys.stderr,
    )
    report = perfbench.run_bench(
        workloads=workloads,
        variants=variants,
        num_uops=num_uops,
        repeats=args.repeats,
        progress=lambda line: print(f"  {line}", file=sys.stderr),
    )
    print(perfbench.format_report(report))
    if not args.no_write:
        path = args.output or perfbench.next_bench_path(args.dir)
        perfbench.write_report(report, path)
        print(f"\nbench report written to {path}", file=sys.stderr)
    if args.compare:
        baseline = perfbench.load_report(args.compare)
        print(f"\nDelta vs {args.compare}:")
        print(perfbench.compare_reports(baseline, report))
        failures = perfbench.comparison_failures(
            perfbench.compare_cells(baseline, report),
            max_slowdown_percent=args.max_slowdown,
        )
        if failures:
            print(
                f"\nbench regression gate FAILED vs {args.compare}:", file=sys.stderr
            )
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return EXIT_REGRESSION
    return EXIT_OK


def _bench_sharded(args: argparse.Namespace, perfbench) -> int:
    """``bench --shards N``: time one long-trace sharded replay end to end."""
    if args.shards < 1:
        raise BadSpecError(f"--shards must be >= 1, got {args.shards}")
    num_uops = args.uops if args.uops is not None else perfbench.SHARD_BENCH_UOPS
    print(
        f"benchmarking sharded replay: {perfbench.SHARD_BENCH_WORKLOAD}/"
        f"{perfbench.SHARD_BENCH_VARIANT} at {num_uops} micro-ops, "
        f"{args.shards} shard(s), {args.workers} worker(s), "
        f"best of {args.repeats} ...",
        file=sys.stderr,
    )
    report = perfbench.run_sharded_bench(
        num_uops=num_uops,
        shards=args.shards,
        workers=args.workers,
        warmup_uops=args.warmup_uops,
        repeats=args.repeats,
        progress=lambda line: print(f"  {line}", file=sys.stderr),
    )
    print(perfbench.format_report(report))
    if not args.no_write:
        path = args.output or perfbench.next_bench_path(args.dir)
        perfbench.write_report(report, path)
        print(f"\nbench report written to {path}", file=sys.stderr)
    if args.compare:
        baseline = perfbench.load_report(args.compare)
        print(f"\nDelta vs {args.compare}:")
        print(perfbench.compare_reports(baseline, report))
        failures = perfbench.comparison_failures(
            perfbench.compare_cells(baseline, report),
            max_slowdown_percent=args.max_slowdown,
        )
        if failures:
            print(
                f"\nbench regression gate FAILED vs {args.compare}:", file=sys.stderr
            )
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return EXIT_REGRESSION
    return EXIT_OK


def _cmd_study_list(args: argparse.Namespace) -> int:
    from repro.simulation.study import STUDY_REGISTRY

    if args.quiet:
        for name in STUDY_REGISTRY.names():
            print(name)
        return EXIT_OK
    print("Registered sensitivity studies (run with 'python -m repro study run'):")
    for entry in STUDY_REGISTRY.entries():
        spec = entry.create()
        points = len(spec.expand())
        cells = points * len(spec.resolved_workloads()) * len(spec.resolved_variants())
        print(f"  {entry.name:26s} {entry.description}")
        print(
            f"  {'':26s} axes: "
            + " x ".join(f"{axis.name}[{len(axis.points)}]" for axis in spec.axes)
            + f" -> {points} points, {cells} cells at {spec.num_uops} uops"
        )
    return EXIT_OK


def _cmd_study_run(args: argparse.Namespace) -> int:
    from repro.analysis.report import format_study_markdown, write_study_csv
    from repro.simulation.study import build_study, run_study

    spec = build_study(
        args.study,
        num_uops=args.uops,
        workloads=(
            _parse_names(args.workloads, WORKLOAD_REGISTRY.names(), "workloads")
            if args.workloads
            else None
        ),
        variants=(
            _parse_names(args.variants, VARIANT_REGISTRY.names(), "variants")
            if args.variants
            else None
        ),
    )
    engine = ExperimentEngine(workers=args.workers, cache_dir=args.cache_dir)
    result = run_study(
        spec, engine=engine, progress=lambda line: print(line, file=sys.stderr)
    )
    print(
        f"done: {result.total_jobs} cells, {result.simulated} simulated, "
        f"{result.cache_hits} from cache\n",
        file=sys.stderr,
    )
    print(format_study_markdown(result))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(result.to_dict(), handle)
        print(f"\nfull study result written to {args.output}", file=sys.stderr)
    if args.csv:
        write_study_csv(result, args.csv)
        print(f"per-cell curve data written to {args.csv}", file=sys.stderr)
    return EXIT_OK


def _cmd_study_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import format_study_markdown, write_study_csv
    from repro.simulation.study import StudyResult

    with open(args.result, "r", encoding="utf-8") as handle:
        result = StudyResult.from_dict(json.load(handle))
    print(format_study_markdown(result))
    if args.csv:
        write_study_csv(result, args.csv)
        print(f"per-cell curve data written to {args.csv}", file=sys.stderr)
    return EXIT_OK


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service.server import ExperimentService, serve

    service = ExperimentService(
        state_dir=args.state_dir,
        host=args.host,
        port=args.port,
        workers=args.workers,
        cache_dir=args.cache_dir,
        max_queue=args.max_queue,
        max_concurrent=args.max_concurrent,
        max_cache_bytes=args.max_cache_bytes,
        retry_after=args.retry_after,
        lease_ttl=args.lease_ttl,
        max_attempts=args.max_attempts,
        log=lambda line: print(line, file=sys.stderr),
    )
    return asyncio.run(serve(service))


def _cmd_work(args: argparse.Namespace) -> int:
    from repro.service.worker import FleetWorker

    worker = FleetWorker(
        args.url,
        name=args.name,
        max_cells=args.max_cells,
        poll_interval=args.poll_interval,
        max_batches=args.max_batches,
        backoff_seed=args.backoff_seed,
        log=lambda line: print(f"work: {line}", file=sys.stderr),
    )
    return worker.run()


def _load_document(path: str) -> Any:
    """Read a job document from a file path, or ``-`` for stdin."""
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except ValueError as exc:
        raise BadSpecError(f"document is not valid JSON: {exc}") from exc


def _job_failure_exit(summary: Dict[str, Any]) -> int:
    """Map a failed job's stored HTTP status class to the CLI exit code."""
    print(
        f"error: job {summary['id']} failed: {summary.get('error')}",
        file=sys.stderr,
    )
    return EXIT_BAD_SPEC if summary.get("error_status") == 400 else EXIT_SIM_FAILURE


def _cmd_submit(args: argparse.Namespace) -> int:
    document = _load_document(args.document)
    client = ServiceClient(args.url)
    response = client.submit(document)
    cells = response.get("cells", {})
    print(
        f"job {response['id']} queued: {cells.get('cached', 0)}/"
        f"{cells.get('total', 0)} cells already cached",
        file=sys.stderr,
    )
    print(response["id"])
    if args.no_wait:
        return EXIT_OK

    def on_event(event: Dict[str, Any]) -> None:
        if event.get("type") == "cell":
            print(
                f"  cell {event['done']}/{event['total']} ({event['source']})",
                file=sys.stderr,
            )

    final = client.wait(response["id"], on_event=on_event)
    if final["state"] == "failed":
        return _job_failure_exit(final)
    accounting = final.get("accounting") or {}
    print(
        f"done: {accounting.get('total', 0)} cells, "
        f"{accounting.get('simulated', 0)} simulated, "
        f"{accounting.get('cached', 0)} from cache",
        file=sys.stderr,
    )
    if args.output:
        result = client.result(final["id"])
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(result["result"], handle)
        print(f"result document written to {args.output}", file=sys.stderr)
    return EXIT_OK


def _cmd_status(args: argparse.Namespace) -> int:
    client = ServiceClient(args.url)
    if args.job:
        summary = client.job(args.job)
        print(json.dumps(summary, indent=2, sort_keys=True))
        if summary.get("state") == "failed":
            return _job_failure_exit(summary)
        return EXIT_OK
    if args.jobs:
        print(json.dumps(client.jobs(), indent=2, sort_keys=True))
        return EXIT_OK
    print(json.dumps(client.status(), indent=2, sort_keys=True))
    return EXIT_OK


def _require_cache_target(args: argparse.Namespace) -> None:
    if bool(args.url) == bool(args.cache_dir):
        raise BadSpecError(
            "cache commands need exactly one of --cache-dir DIR (local) "
            "or --url URL (a running service)"
        )


def _cmd_cache_stats(args: argparse.Namespace) -> int:
    _require_cache_target(args)
    if args.url:
        stats = ServiceClient(args.url).cache_stats()
    else:
        stats = ResultCache(args.cache_dir).stats().to_dict()
    print(json.dumps(stats, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_cache_prune(args: argparse.Namespace) -> int:
    _require_cache_target(args)
    if args.url:
        result = ServiceClient(args.url).cache_prune(args.max_bytes)
    else:
        if args.max_bytes is None:
            raise BadSpecError("cache prune --cache-dir needs --max-bytes N")
        result = ResultCache(args.cache_dir).prune(args.max_bytes).to_dict()
    print(json.dumps(result, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_lint(args: argparse.Namespace) -> int:
    # Imported lazily: lint depends on the simulator, never the reverse, and
    # no other subcommand should pay for the analysis machinery.
    from pathlib import Path

    from repro.analysis.lint import (
        LINT_REGISTRY,
        Baseline,
        LintEngine,
        RepoIndex,
        find_repo_root,
        write_baseline,
    )

    if args.list_rules:
        print("Registered lint rules (run with 'python -m repro lint --rules'):")
        for entry in LINT_REGISTRY.entries():
            print(f"  {entry.name:<16} {entry.description}")
        return EXIT_OK

    root = find_repo_root()
    index = RepoIndex.load(root)
    rules = [name.strip() for name in args.rules.split(",")] if args.rules else None
    run = LintEngine(index, rules=rules).run(paths=args.paths or None)

    baseline_path = (
        Path(args.baseline)
        if args.baseline is not None
        else root / "tests" / "goldens" / "lint_baseline.json"
    )
    if args.write_baseline:
        count = write_baseline(run.findings, baseline_path)
        print(f"lint baseline written to {baseline_path} ({count} entries)")
        return EXIT_OK
    if args.no_baseline or not os.path.isfile(baseline_path):
        baseline = Baseline.empty()
    else:
        baseline = Baseline.load(baseline_path)
    new, suppressed = baseline.partition(run.findings)

    if args.format == "json":
        payload = {
            "rules": run.rules,
            "findings": [f.to_dict() for f in new],
            "suppressed": len(suppressed),
            "stale_baseline_keys": baseline.unused_keys(run.findings),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for finding in new:
            print(finding.format_text())
        summary = f"{len(new)} finding(s)"
        if suppressed:
            summary += f", {len(suppressed)} baselined"
        stale = baseline.unused_keys(run.findings)
        if stale:
            summary += f", {len(stale)} stale baseline entr(y/ies)"
        print(summary, file=sys.stderr)
    return EXIT_LINT_FINDINGS if new else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the paper's evaluation via the experiment engine.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub_list = sub.add_parser("list", help="list registered workloads and variants")
    sub_list.set_defaults(func=_cmd_list)

    sub_sweep = sub.add_parser("sweep", help="run a benchmarks x variants sweep")
    sub_sweep.add_argument(
        "--benchmarks",
        default=",".join(DEFAULT_GOLDEN_WORKLOADS),
        help="comma-separated workload names, or 'all' for the full suite",
    )
    sub_sweep.add_argument(
        "--variants",
        default="all",
        help="comma-separated variant names, or 'all' (the baseline is always added)",
    )
    sub_sweep.add_argument(
        "--uops", type=int, default=5_000,
        help="micro-ops per benchmark trace (default: 5000)",
    )
    sub_sweep.add_argument(
        "--max-cycles", type=int, default=None,
        help="optional per-simulation cycle budget",
    )
    sub_sweep.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (1 = serial; results are identical either way)",
    )
    sub_sweep.add_argument(
        "--cache-dir", default=None,
        help="result-cache directory; re-runs only simulate changed cells",
    )
    sub_sweep.add_argument(
        "--set", action="append", metavar="KEY=VALUE",
        help="CoreConfig override (repeatable), e.g. --set rob_size=256",
    )
    sub_sweep.add_argument(
        "--probe", action="append", metavar="NAME",
        help="attach an instrumentation probe to every cell (repeatable); "
             "see 'python -m repro list'",
    )
    sub_sweep.add_argument(
        "--co-runner", action="append", metavar="WORKLOAD[:VARIANT]",
        help="add a co-runner core sharing the L3/DRAM with every cell "
             "(repeatable); the cell's own workload/variant is core 0, e.g. "
             "--co-runner mcf:ooo",
    )
    sub_sweep.add_argument(
        "--output", default=None,
        help="write the full sweep result as JSON for 'python -m repro report'",
    )
    sub_sweep.add_argument(
        "--figure", choices=("2", "3", "summary", "all"), default="all",
        help="which figure/table to print (default: all)",
    )
    sub_sweep.set_defaults(func=_cmd_sweep)

    sub_report = sub.add_parser(
        "report", help="render figures from a saved sweep result"
    )
    sub_report.add_argument("result", help="JSON file written by 'sweep --output'")
    sub_report.add_argument(
        "--figure", choices=("2", "3", "summary", "all"), default="all",
        help="which figure/table to print (default: all)",
    )
    sub_report.set_defaults(func=_cmd_report)

    sub_trace = sub.add_parser(
        "trace", help="record, inspect and replay compressed trace files"
    )
    trace_sub = sub_trace.add_subparsers(dest="trace_command", required=True)

    trace_record = trace_sub.add_parser(
        "record", help="stream a registered workload into a trace file"
    )
    trace_record.add_argument(
        "--workload", required=True,
        help="registered workload name (see 'python -m repro list')",
    )
    trace_record.add_argument(
        "--uops", type=int, default=None,
        help="micro-ops to record (default: the workload's own length)",
    )
    trace_record.add_argument(
        "--output", required=True, help="destination trace file path"
    )
    trace_record.add_argument(
        "--name", default=None,
        help="benchmark name stored in the header (default: the workload name)",
    )
    trace_record.set_defaults(func=_cmd_trace_record)

    trace_info = trace_sub.add_parser("info", help="print a trace file's header")
    trace_info.add_argument("trace", help="trace file written by 'trace record'")
    trace_info.add_argument(
        "--stats", action="store_true",
        help="additionally stream the file to compute composition statistics",
    )
    trace_info.set_defaults(func=_cmd_trace_info)

    trace_replay = trace_sub.add_parser(
        "replay", help="simulate recorded trace files through the engine"
    )
    trace_replay.add_argument(
        "traces", nargs="+", help="trace files written by 'trace record'"
    )
    trace_replay.add_argument(
        "--variants", default="all",
        help="comma-separated variant names, or 'all' (the baseline is always added)",
    )
    trace_replay.add_argument(
        "--max-cycles", type=int, default=None,
        help="optional per-simulation cycle budget",
    )
    trace_replay.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (1 = serial; results are identical either way)",
    )
    trace_replay.add_argument(
        "--cache-dir", default=None,
        help="result-cache directory, keyed by trace *content* digest",
    )
    trace_replay.add_argument(
        "--probe", action="append", metavar="NAME",
        help="attach an instrumentation probe to every cell (repeatable)",
    )
    trace_replay.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="split each trace into N contiguous windows, run them as "
             "independent jobs (parallel with --workers) and stitch the "
             "statistics; N=1 with no warmup is bit-identical to an "
             "unsharded replay",
    )
    trace_replay.add_argument(
        "--warmup-uops", type=int, default=0, metavar="K",
        help="with --shards: simulate up to K micro-ops before each window "
             "to warm caches/predictors, excluded from the statistics "
             "(default: 0)",
    )
    trace_replay.add_argument(
        "--output", default=None,
        help="write the full comparison as JSON",
    )
    trace_replay.add_argument(
        "--figure", choices=("2", "3", "summary", "all"), default="all",
        help="which figure/table to print (default: all)",
    )
    trace_replay.set_defaults(func=_cmd_trace_replay)

    sub_bench = sub.add_parser(
        "bench",
        help="measure simulator throughput and write a BENCH_<n>.json report",
    )
    sub_bench.add_argument(
        "--benchmarks", default=None,
        help="comma-separated workload names, or 'all' "
             "(default: the Figure-2 six-benchmark matrix)",
    )
    sub_bench.add_argument(
        "--variants", default=None,
        help="comma-separated variant names, or 'all' (default: every variant)",
    )
    sub_bench.add_argument(
        "--uops", type=int, default=None,
        help="micro-ops per cell (default: 3000, or 800 with --quick)",
    )
    sub_bench.add_argument(
        "--repeats", type=int, default=1,
        help="runs per cell; wall time is the best of these (default: 1)",
    )
    sub_bench.add_argument(
        "--quick", action="store_true",
        help="CI smoke matrix: mcf,milc x ooo,pre at 800 micro-ops",
    )
    sub_bench.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="instead of the matrix, time one long-trace sharded replay "
             "(sphinx3/ooo at 60000 micro-ops by default) split N ways",
    )
    sub_bench.add_argument(
        "--warmup-uops", type=int, default=0, metavar="K",
        help="with --shards: per-shard warmup prefix in micro-ops (default: 0)",
    )
    sub_bench.add_argument(
        "--workers", type=int, default=1,
        help="with --shards: worker processes for the shard jobs (default: 1)",
    )
    sub_bench.add_argument(
        "--dir", default=".",
        help="directory for the auto-numbered BENCH_<n>.json (default: cwd)",
    )
    sub_bench.add_argument(
        "--output", default=None,
        help="explicit report path (overrides the auto-numbered name)",
    )
    sub_bench.add_argument(
        "--no-write", action="store_true",
        help="print the table only; do not write a report file",
    )
    sub_bench.add_argument(
        "--compare", default=None, metavar="PREV.json",
        help="print per-cell throughput deltas against a previous report; "
             "exits nonzero if any same-size cell's stats digest diverged",
    )
    sub_bench.add_argument(
        "--max-slowdown", type=float, default=None, metavar="PCT",
        help="with --compare: also exit nonzero when any matched cell's "
             "throughput dropped by more than PCT percent",
    )
    sub_bench.set_defaults(func=_cmd_bench)

    sub_study = sub.add_parser(
        "study", help="run declarative sensitivity studies (config sweeps)"
    )
    study_sub = sub_study.add_subparsers(dest="study_command", required=True)

    study_list = study_sub.add_parser("list", help="list registered studies")
    study_list.add_argument(
        "--quiet", action="store_true", help="print bare study names only"
    )
    study_list.set_defaults(func=_cmd_study_list)

    study_run = study_sub.add_parser(
        "run", help="expand a registered study and run it through the engine"
    )
    study_run.add_argument(
        "study", help="registered study name (see 'python -m repro study list')"
    )
    study_run.add_argument(
        "--uops", type=int, default=None,
        help="micro-ops per cell (default: the study's own setting)",
    )
    study_run.add_argument(
        "--workloads", default=None,
        help="comma-separated workload names overriding the study's suite, "
             "or 'all'",
    )
    study_run.add_argument(
        "--variants", default=None,
        help="comma-separated variant names overriding the study's list "
             "(the baseline is always added)",
    )
    study_run.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (1 = serial; results are identical either way)",
    )
    study_run.add_argument(
        "--cache-dir", default=None,
        help="result-cache directory; a warm re-run simulates nothing",
    )
    study_run.add_argument(
        "--output", default=None,
        help="write the full study result as JSON for 'study report'",
    )
    study_run.add_argument(
        "--csv", default=None, metavar="PATH",
        help="additionally write long-format per-cell curve data as CSV",
    )
    study_run.set_defaults(func=_cmd_study_run)

    study_report = study_sub.add_parser(
        "report", help="re-render a saved study result without simulating"
    )
    study_report.add_argument("result", help="JSON file written by 'study run --output'")
    study_report.add_argument(
        "--csv", default=None, metavar="PATH",
        help="additionally write long-format per-cell curve data as CSV",
    )
    study_report.set_defaults(func=_cmd_study_report)

    sub_serve = sub.add_parser(
        "serve",
        help="run the always-on experiment service (HTTP/JSON job queue)",
    )
    sub_serve.add_argument(
        "--state-dir", default=".repro-service",
        help="daemon state root: journal, results, default cache "
             "(default: .repro-service)",
    )
    sub_serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    sub_serve.add_argument(
        "--port", type=int, default=8765,
        help="listen port; 0 picks an ephemeral one (default: 8765)",
    )
    sub_serve.add_argument(
        "--workers", type=int, default=1,
        help="engine worker processes per job (default: 1)",
    )
    sub_serve.add_argument(
        "--cache-dir", default=None,
        help="shared result-cache directory (default: STATE_DIR/cache)",
    )
    sub_serve.add_argument(
        "--max-queue", type=int, default=8,
        help="admission bound: queued jobs beyond this get 429 + Retry-After "
             "(default: 8)",
    )
    sub_serve.add_argument(
        "--max-concurrent", type=int, default=1,
        help="jobs executing at once (default: 1)",
    )
    sub_serve.add_argument(
        "--max-cache-bytes", type=int, default=None,
        help="LRU-evict the result cache beyond this many bytes "
             "(default: unbounded)",
    )
    sub_serve.add_argument(
        "--retry-after", type=float, default=5.0,
        help="Retry-After seconds advertised on 429 responses (default: 5)",
    )
    sub_serve.add_argument(
        "--lease-ttl", type=float, default=15.0,
        help="fleet lease lifetime in seconds; a worker that stops "
             "heartbeating for this long has its cells reclaimed "
             "(default: 15)",
    )
    sub_serve.add_argument(
        "--max-attempts", type=int, default=3,
        help="claims a cell may consume before it is quarantined and the "
             "job fails with its traceback (default: 3)",
    )
    sub_serve.set_defaults(func=_cmd_serve)

    sub_work = sub.add_parser(
        "work",
        help="run a fleet worker: pull cell batches from a repro serve "
             "daemon over HTTP (exit 0 drained, 75 unreachable)",
    )
    sub_work.add_argument(
        "--url", default=DEFAULT_SERVICE_URL,
        help=f"service base URL (default: {DEFAULT_SERVICE_URL})",
    )
    sub_work.add_argument(
        "--name", default=None, help="worker display name (default: its id)"
    )
    sub_work.add_argument(
        "--max-cells", type=int, default=1,
        help="cells to lease per claim (default: 1)",
    )
    sub_work.add_argument(
        "--poll-interval", type=float, default=0.5,
        help="idle claim-poll ceiling in seconds (default: 0.5)",
    )
    sub_work.add_argument(
        "--max-batches", type=int, default=None,
        help="exit 0 after completing this many leases (default: until drained)",
    )
    sub_work.add_argument(
        "--backoff-seed", type=int, default=0,
        help="seed for the deterministic retry/idle backoff schedule; give "
             "each worker its own to de-synchronise a fleet (default: 0)",
    )
    sub_work.set_defaults(func=_cmd_work)

    sub_submit = sub.add_parser(
        "submit", help="submit a job document to a running experiment service"
    )
    sub_submit.add_argument(
        "document",
        help="JSON job document path, or '-' for stdin: "
             '{"kind": "sweep"|"study"|"replay", "spec": {...}}',
    )
    sub_submit.add_argument(
        "--url", default=DEFAULT_SERVICE_URL,
        help=f"service base URL (default: {DEFAULT_SERVICE_URL})",
    )
    sub_submit.add_argument(
        "--no-wait", action="store_true",
        help="print the job id and exit instead of following progress events",
    )
    sub_submit.add_argument(
        "--output", default=None,
        help="after completion, write the job's result document here",
    )
    sub_submit.set_defaults(func=_cmd_submit)

    sub_status = sub.add_parser(
        "status", help="query a running experiment service"
    )
    sub_status.add_argument(
        "job", nargs="?", default=None,
        help="job id to show (default: daemon-level status)",
    )
    sub_status.add_argument(
        "--url", default=DEFAULT_SERVICE_URL,
        help=f"service base URL (default: {DEFAULT_SERVICE_URL})",
    )
    sub_status.add_argument(
        "--jobs", action="store_true", help="list every known job instead"
    )
    sub_status.set_defaults(func=_cmd_status)

    sub_cache = sub.add_parser(
        "cache", help="inspect or prune a result cache (local or via service)"
    )
    cache_sub = sub_cache.add_subparsers(dest="cache_command", required=True)

    cache_stats = cache_sub.add_parser(
        "stats", help="entry count and byte totals for a result cache"
    )
    cache_stats.add_argument(
        "--cache-dir", default=None, help="local result-cache directory"
    )
    cache_stats.add_argument(
        "--url", default=None, help="a running service's base URL instead"
    )
    cache_stats.set_defaults(func=_cmd_cache_stats)

    cache_prune = cache_sub.add_parser(
        "prune", help="LRU-evict cache entries down to a byte bound"
    )
    cache_prune.add_argument(
        "--cache-dir", default=None, help="local result-cache directory"
    )
    cache_prune.add_argument(
        "--url", default=None, help="a running service's base URL instead"
    )
    cache_prune.add_argument(
        "--max-bytes", type=int, default=None,
        help="evict least-recently-used entries until the cache fits "
             "(required with --cache-dir; --url defaults to the daemon's bound)",
    )
    cache_prune.set_defaults(func=_cmd_cache_prune)

    sub_lint = sub.add_parser(
        "lint",
        help="run the repo-invariant static-analysis pass over src/repro",
    )
    sub_lint.add_argument(
        "paths", nargs="*",
        help="restrict reported findings to these files/directories "
             "(analysis always covers the whole tree)",
    )
    sub_lint.add_argument(
        "--rules", default=None,
        help="comma-separated rule names to run (default: all registered)",
    )
    sub_lint.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="finding output format (default: text)",
    )
    sub_lint.add_argument(
        "--baseline", default=None,
        help="baseline file of grandfathered findings "
             "(default: tests/goldens/lint_baseline.json when present)",
    )
    sub_lint.add_argument(
        "--no-baseline", action="store_true",
        help="ignore any baseline and report every finding",
    )
    sub_lint.add_argument(
        "--write-baseline", action="store_true",
        help="record the current findings as the new baseline and exit 0",
    )
    sub_lint.add_argument(
        "--list-rules", action="store_true",
        help="list registered lint rules and exit",
    )
    sub_lint.set_defaults(func=_cmd_lint)
    return parser


def _raise_keyboard_interrupt(signum, frame) -> None:
    raise KeyboardInterrupt


def _install_sigterm_handler() -> None:
    """Make SIGTERM unwind like Ctrl-C: pool cleanup runs, exit is 130.

    Without this, SIGTERM during a ``--workers N`` run kills the process with
    the ProcessPoolExecutor's children orphaned mid-write.  ``repro serve``
    replaces it with the event loop's own handler for a journal-flushing
    shutdown.
    """
    try:
        signal.signal(signal.SIGTERM, _raise_keyboard_interrupt)
    except (ValueError, OSError):
        pass  # not the main thread (embedded use); keep the default


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    _install_sigterm_handler()
    try:
        return args.func(args)
    except BrokenPipeError:
        # stdout was closed early (e.g. piped into head); exit quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except KeyboardInterrupt:
        # SIGINT or SIGTERM: the engine has already cancelled/terminated its
        # pool on the way out; report cleanly instead of a traceback.
        print("\ninterrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except BadSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_SPEC
    except ServiceError as exc:
        print(f"error: {exc.message}", file=sys.stderr)
        if exc.status == 429:
            if exc.retry_after is not None:
                print(
                    f"service busy; retry after {exc.retry_after:.0f}s",
                    file=sys.stderr,
                )
            return EXIT_BUSY
        return EXIT_BAD_SPEC if exc.status < 500 else EXIT_SIM_FAILURE
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIM_FAILURE
    except (KeyError, ValueError) as exc:
        # Registry lookups raise KeyError and configuration validation raises
        # ValueError, both with user-facing messages — bad-spec class.
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return EXIT_BAD_SPEC
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_SPEC


if __name__ == "__main__":
    raise SystemExit(main())
