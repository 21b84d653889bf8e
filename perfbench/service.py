"""The ``sweep-service`` workload: a ``repro serve`` daemon driven by one client.

Each round submits the 30-cell Figure-2 sweep (the golden matrix, at the
golden length) cold, waits for it, resubmits it warm ``WARM_RESUBMITS``
times, then empties the daemon's result cache with ``cache_prune(0)`` so the
next round is cold again.  The daemon is a subprocess with at most ``nproc``
(and at most two) engine workers; the client is this process, in a closed
loop.  Cells are built by name inside the daemon, so the seed does not reach
them.

The traced round adds client-side spans around the service calls and
replays the daemon's engine work in-process through the engine's public
functions (``expand_sweep_payloads``, ``job_cache_key``,
``execute_cell_payload``, ``ResultCache.get``/``put`` and
``SimulationResult`` serde) to attribute time to the ``simulation`` layer.
"""

from __future__ import annotations

import os
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.registry import build_workload
from repro.service.client import ServiceClient
from repro.simulation import ExperimentEngine, SimulationResult, SweepSpec
from repro.simulation.engine import SweepResult, execute_cell_payload, job_cache_key
from repro.simulation.golden import (
    DEFAULT_GOLDEN_PATH,
    DEFAULT_GOLDEN_VARIANTS,
    DEFAULT_GOLDEN_WORKLOADS,
    cell_key,
    load_goldens,
    stats_digest,
)

import tracing
from report import Outcome, median

WARM_RESUBMITS = 10
#: A job still unfinished after this long fails the run instead of hanging it.
JOB_TIMEOUT_S = 120.0
WORKERS = max(1, min(2, os.cpu_count() or 1))


class Daemon:
    """One ``python -m repro serve`` subprocess on an ephemeral port."""

    def __init__(self, root: Path, state_dir: Path) -> None:
        self.started = time.perf_counter()
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--state-dir", str(state_dir),
                "--port", "0",
                "--workers", str(WORKERS),
                "--max-queue", "64",
            ],
            cwd=str(root),
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        self.state_dir = state_dir
        self.url: Optional[str] = None
        self.ready_at: Optional[float] = None
        self._ready = threading.Event()
        # Drain stderr for the daemon's whole life so its log never blocks it.
        self._reader = threading.Thread(target=self._read_log, daemon=True)
        self._reader.start()

    def _read_log(self) -> None:
        for line in self.proc.stderr:
            if self.url is None and " listening on " in line:
                self.ready_at = time.perf_counter()
                self.url = line.split(" listening on ", 1)[1].split()[0]
                self._ready.set()
        self._ready.set()

    def wait_ready(self, timeout: float = 60.0) -> float:
        """Seconds from spawn until the daemon logged that it is listening."""
        self._ready.wait(timeout)
        if self.ready_at is None:
            raise RuntimeError("repro serve exited or stalled before listening")
        return self.ready_at - self.started

    def stop(self) -> int:
        """SIGTERM, then wait for the daemon and its log reader to end."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self._reader.join(timeout=10)
        return code

    @property
    def journal_bytes(self) -> int:
        return (self.state_dir / "journal.jsonl").stat().st_size

    def result_bytes(self, job_id: str) -> int:
        return (self.state_dir / "results" / f"{job_id}.json").stat().st_size


def figure2_document(num_uops: int) -> Dict:
    """The Figure-2 sweep job document: six surrogates x five variants."""
    return {
        "kind": "sweep",
        "spec": {
            "workloads": list(DEFAULT_GOLDEN_WORKLOADS),
            "variants": list(DEFAULT_GOLDEN_VARIANTS),
            "num_uops": num_uops,
        },
    }


def sweep_digests(result_doc: Dict) -> Tuple[Dict[str, str], int]:
    """Per-cell stats digests of a sweep result document, and its committed uops."""
    digests: Dict[str, str] = {}
    committed = 0
    for benchmark in SweepResult.from_dict(result_doc).comparison.benchmarks:
        for variant, result in benchmark.results.items():
            digests[cell_key(benchmark.benchmark, variant)] = stats_digest(result.stats)
            committed += result.stats.committed_uops
    return digests, committed


class Session:
    """A running daemon, its client and the golden digests its results must match."""

    def __init__(self, root: Path, work: Path, outcome: Outcome) -> None:
        self.root = root
        self.work = work
        self.outcome = outcome
        record = load_goldens(root / DEFAULT_GOLDEN_PATH)
        self.golden = {key: cell["digest"] for key, cell in record["cells"].items()}
        self.document = figure2_document(record["num_uops"])
        self.cells = len(DEFAULT_GOLDEN_WORKLOADS) * len(DEFAULT_GOLDEN_VARIANTS)
        self.daemon: Optional[Daemon] = None
        self.setup_times: List[float] = []

    def start(self, repeats: int) -> None:
        """Spawn the daemon ``repeats`` times on empty state; keep the last one."""
        for attempt in range(repeats):
            state_dir = self.work / f"state-{attempt}"
            daemon = Daemon(self.root, state_dir)
            self.daemon = daemon
            self.setup_times.append(daemon.wait_ready())
            # A served request means ``serve`` has installed its SIGTERM
            # handler (it does so only after logging that it listens).
            self.client = ServiceClient(daemon.url, timeout=120.0)
            self.outcome.check(self.client.status() is not None, "daemon status failed")
            if attempt < repeats - 1:
                self.outcome.check(daemon.stop() == 0, "daemon did not exit cleanly")
                shutil.rmtree(state_dir, ignore_errors=True)

    def stop(self) -> None:
        if self.daemon is not None:
            self.outcome.check(self.daemon.stop() == 0, "daemon did not exit cleanly")
            self.daemon = None

    def job(self, cold: bool, spans: Optional[Dict[str, List[float]]] = None) -> Tuple[float, int]:
        """Submit the document and wait; returns (seconds, committed uops).

        A cold job is timed from submit to done; a warm job also includes
        fetching the result.  ``spans`` collects the client-side service
        spans (admit, queue, result fetch, result bytes) when given.
        """
        client = self.client
        started_at: List[float] = []

        def on_event(event: Dict) -> None:
            if event.get("type") == "started" and not started_at:
                started_at.append(time.perf_counter())

        began = time.perf_counter()
        admitted = client.submit(self.document)
        admitted_at = time.perf_counter()
        summary = client.wait(
            admitted["id"], on_event=on_event, deadline=time.monotonic() + JOB_TIMEOUT_S
        )
        done_at = time.perf_counter()
        result = client.result(admitted["id"])
        fetched_at = time.perf_counter()
        elapsed = (done_at if cold else fetched_at) - began

        cached = 0 if cold else self.cells
        accounting = summary.get("accounting") or {}
        digests, committed = sweep_digests(result["result"])
        self.outcome.check(
            summary.get("state") == "done"
            and admitted.get("cells") == {"total": self.cells, "cached": cached}
            and accounting.get("cached") == cached
            and accounting.get("simulated") == self.cells - cached
            and digests == self.golden,
            f"{'cold' if cold else 'warm'} job {admitted['id']} wrong cache use or digests",
        )
        if spans is not None:
            spans["admit"].append(admitted_at - began)
            spans["queue"].append((started_at[0] if started_at else done_at) - began)
            spans["fetch"].append(fetched_at - done_at)
            spans["bytes"].append(self.daemon.result_bytes(admitted["id"]))
        return elapsed, committed

    def prune(self) -> None:
        pruned = self.client.cache_prune(0)
        self.outcome.check(pruned.get("remaining_entries") == 0, "cache prune left entries")

    def round(self, spans=None) -> Tuple[float, List[float], int]:
        """One cold job, the warm resubmits and the prune."""
        cold, committed = self.job(True, spans)
        warm = [self.job(False, spans)[0] for _ in range(WARM_RESUBMITS)]
        self.prune()
        return cold, warm, committed


def children_peak_rss_mb() -> float:
    """Peak RSS of the largest ended child (the daemon or an engine worker)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def measure(root: Path, work: Path, seconds: float, outcome: Outcome, setup_repeats: int) -> Dict:
    """Timed rounds with tracing off; returns the end-to-end figures."""
    session = Session(root, work, outcome)
    try:
        session.start(setup_repeats)
        cold: List[float] = []
        warm: List[float] = []
        committed = 0
        start = time.perf_counter()
        while not cold or time.perf_counter() - start < seconds:
            cold_s, warm_s, uops = session.round()
            cold.append(cold_s)
            warm.extend(warm_s)
            committed += uops
    finally:
        session.stop()
    return {
        "setup_s": median(session.setup_times),
        "sim_uops_per_s": committed / sum(cold),
        "cold": {0: cold},
        "warm": {0: warm},
        "peak_rss_mb": children_peak_rss_mb(),
    }


def replay_engine(
    spans: tracing.Spans, engine: ExperimentEngine, spec: SweepSpec
) -> Tuple[Dict[str, str], int]:
    """The daemon's engine work for one job, in-process, with simulation spans.

    Returns the cells' stats digests and the micro-ops of the traces built
    for cells the cache missed.
    """
    payloads = spans.wrap("simulation.expand", engine.expand_sweep_payloads)(spec)
    cache_key = spans.wrap("simulation.cache_key", job_cache_key)
    cache_get = spans.wrap("simulation.cache_get", engine.cache.get)
    cache_put = spans.wrap("simulation.cache_put", engine.cache.put)
    execute = spans.wrap("simulation.execute", execute_cell_payload)
    build = spans.wrap("workloads.build", build_workload)
    from_dict = spans.wrap("simulation.serde", SimulationResult.from_dict)
    to_dict = spans.wrap("simulation.serde", SimulationResult.to_dict)
    digests = {}
    generated = 0
    for payload in payloads:
        key = cache_key(payload)
        produced = cache_get(key)
        if produced is None:
            source = payload["source"]
            generated += len(build(source["name"], num_uops=source["num_uops"]))
            produced = execute(payload)
            cache_put(key, produced)
        result = from_dict(produced)
        to_dict(result)
        digests[cell_key(payload["benchmark"], payload["variant"])] = stats_digest(result.stats)
    return digests, generated


def measure_traced(root: Path, work: Path, seconds: float, outcome: Outcome) -> Dict:
    """Alternating untraced and traced rounds plus the in-process engine replay."""
    session = Session(root, work, outcome)
    engine = ExperimentEngine(workers=1, cache_dir=work / "replay-cache")
    spec = SweepSpec(**session.document["spec"])
    client_spans: Dict[str, List[float]] = {"admit": [], "queue": [], "fetch": [], "bytes": []}
    rounds: List[Dict[str, float]] = []
    untraced_total = traced_total = 0.0
    jobs = 0
    try:
        session.start(1)
        journal_start = session.daemon.journal_bytes
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < seconds:
            cold, warm, _ = session.round()
            untraced_total += cold + sum(warm)
            cold, warm, _ = session.round(client_spans)
            traced_total += cold + sum(warm)
            jobs += 2 * (1 + WARM_RESUBMITS)

            spans = tracing.Spans()
            hits_before = engine.cache.hits
            digests, generated = replay_engine(spans, engine, spec)
            outcome.check(digests == session.golden, "in-process cold replay digests diverged")
            for _ in range(WARM_RESUBMITS):
                digests, _ = replay_engine(spans, engine, spec)
                outcome.check(digests == session.golden, "in-process warm replay digests diverged")
            outcome.check(
                engine.cache.hits - hits_before == WARM_RESUBMITS * session.cells,
                "in-process warm replays missed the cache",
            )
            engine.cache.prune(0)
            rounds.append(
                {
                    "workloads.build_s": spans.total("workloads.build"),
                    "workloads.uops_generated": generated,
                    "simulation.execute_s": spans.total("simulation.execute"),
                    "simulation.serde_s": spans.total("simulation.serde"),
                    "simulation.cache_put_s": spans.total("simulation.cache_put"),
                    "simulation.cells_simulated": spans.calls("simulation.execute"),
                    "simulation.expand_s": spans.total("simulation.expand"),
                    "simulation.cache_key_s": spans.total("simulation.cache_key"),
                    "simulation.cache_get_s": spans.total("simulation.cache_get"),
                    "simulation.cache_hits": engine.cache.hits - hits_before,
                }
            )
        journal_growth = session.daemon.journal_bytes - journal_start
    finally:
        session.stop()
    metrics = {key: median([entry[key] for entry in rounds]) for key in rounds[0]}
    metrics.update(
        {
            "service.admit_s.p50": median(client_spans["admit"]),
            "service.queue_s.p50": median(client_spans["queue"]),
            "service.result_fetch_s.p50": median(client_spans["fetch"]),
            "service.result_bytes": median(client_spans["bytes"]),
            "service.journal_bytes_per_job": journal_growth / jobs,
            "tracing.overhead_pct": (traced_total / untraced_total - 1.0) * 100.0,
        }
    )
    return metrics
