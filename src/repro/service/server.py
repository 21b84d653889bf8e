"""``repro serve`` — the always-on asyncio experiment service.

One process, three moving parts:

* an **asyncio HTTP/JSON API** (stdlib streams, HTTP/1.1, one request per
  connection) — see the route table in :meth:`ExperimentService._dispatch`;
* a **durable job queue**: admission appends an fsync'd ``submitted`` event
  to the journal *before* the 202 response is sent, so a killed daemon
  resumes every incomplete job on restart (:mod:`repro.service.journal`);
* a **worker loop** feeding the shared
  :class:`~repro.simulation.engine.ExperimentEngine`: one job at a time (its
  cells spread over the engine's process pool or the fleet), per-cell
  progress events, and a shared content-addressed result cache that dedupes
  across tenants.

Backpressure: when ``max_queue`` jobs are already waiting, ``POST /v1/jobs``
returns **429 with a Retry-After header** instead of accepting unbounded
work.  Dedupe: the admission response reports how many of the document's
cells are already in the shared cache — a fully-cached submission runs in
milliseconds without simulating anything.

Graceful shutdown: SIGINT/SIGTERM stop admission, cancel running jobs at
their next cell boundary (completed cells are already in the result cache),
flush the journal, and exit — interrupted jobs stay ``queued``/``running``
in the journal and resume on the next start.

Fleet: every job's uncached cells go through the
:class:`~repro.service.fleet.FleetCoordinator` — cells are leased to remote
workers (``repro work``, ``/v1/workers``) over HTTP, results flow back
through ``complete``, and this daemon stays the *only* cache writer.
Whenever no worker is live the coordinator hands the pending cells to the
engine's own executor, :meth:`~repro.simulation.engine.ExperimentEngine.execute`
(the ``--workers`` process pool).
"""

from __future__ import annotations

import asyncio
import json
import math
import signal
import sys
import threading
import traceback
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union
from urllib.parse import parse_qs, urlsplit

from repro.errors import (
    EXIT_INTERRUPTED,
    EXIT_OK,
    BadSpecError,
    JobCancelled,
)
from repro.serde import write_json_text
from repro.service.documents import ParsedDocument, parse_document
from repro.service.fleet import (
    DEFAULT_LEASE_TTL,
    DEFAULT_MAX_ATTEMPTS,
    FleetCoordinator,
    FleetProtocolError,
)
from repro.service.journal import JobJournal, JobRecord, next_seq, replay_journal
from repro.simulation.engine import ExperimentEngine

#: Largest accepted request body; a SweepSpec/StudySpec is a few KB.
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Default long-poll timeout for ``GET /v1/jobs/<id>/events`` (seconds).
DEFAULT_EVENT_TIMEOUT = 25.0

#: How long a long-poll that has undelivered events gathers more before it
#: is answered (seconds); a state change answers it at once.
EVENT_BATCH_WINDOW = 0.1

#: Event types that change a job's state and answer a pending long-poll at once.
STATE_EVENTS = frozenset({"started", "done", "failed"})

_HTTP_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


class _Job:
    """Runtime state wrapped around a journal :class:`JobRecord`."""

    def __init__(self, record: JobRecord) -> None:
        self.record = record
        #: Progress events, each ``{"seq": n, "type": ..., ...}``.
        self.events: List[Dict[str, Any]] = []
        #: Futures of long-poll waiters, resolved on the next event.
        self.waiters: List[asyncio.Future] = []

    @property
    def terminal(self) -> bool:
        return self.record.state in ("done", "failed")

    def wake_waiters(self) -> None:
        """Resolve every pending long-poll waiter."""
        waiters, self.waiters = self.waiters, []
        for waiter in waiters:
            if not waiter.done():
                waiter.set_result(None)


class ExperimentService:
    """The experiment daemon: HTTP API + durable queue + engine workers.

    Construct, then ``await start()`` inside a running event loop (or use
    :class:`ServiceThread` / :func:`serve` which do it for you).  ``port=0``
    binds an ephemeral port, published as ``self.port`` after ``start()``.
    """

    def __init__(
        self,
        state_dir: Union[str, Path],
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 1,
        cache_dir: Optional[Union[str, Path]] = None,
        max_queue: int = 8,
        max_cache_bytes: Optional[int] = None,
        retry_after: float = 5.0,
        start_paused: bool = False,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        fault_plan: Optional[Any] = None,
        log=None,
    ) -> None:
        if max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {max_queue}")
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.results_dir = self.state_dir / "results"
        self.results_dir.mkdir(exist_ok=True)
        self.host = host
        self.port = port
        self.max_queue = max_queue
        self.retry_after = retry_after
        self.start_paused = start_paused
        self._log = log or (lambda line: None)
        self.engine = ExperimentEngine(
            workers=workers,
            cache_dir=cache_dir if cache_dir is not None else self.state_dir / "cache",
        )
        assert self.engine.cache is not None
        self.engine.cache.max_bytes = max_cache_bytes
        # Startup compaction folds prior lifecycles into snapshot records so
        # the journal's size tracks jobs, not events ever emitted.
        self.journal = JobJournal(self.state_dir / "journal.jsonl", compact=True)
        self.jobs: Dict[str, _Job] = {}
        self._queue: "asyncio.Queue[str]" = asyncio.Queue()
        self._next_seq = 1
        #: Threading (not asyncio) event: checked from executor threads at
        #: every cell boundary to cancel running engine work cooperatively.
        self._stop = threading.Event()
        #: Test-only fault injection (see ``tests/chaos.py``): consulted per
        #: HTTP request (drop/delay/error) and per lease sweep (early expiry).
        self.fault_plan = fault_plan
        self.fleet = FleetCoordinator(
            journal=self.journal,
            lease_ttl=lease_ttl,
            max_attempts=max_attempts,
            stop_event=self._stop,
            fault_plan=fault_plan,
            event_sink=self._fleet_event_sink,
            log=self._log,
        )
        self._interrupted_jobs = 0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._worker_tasks: List[asyncio.Task] = []
        #: One job thread: a study job reads ``engine.last_run_stats`` after
        #: its ``run_jobs``, which a concurrent job's run would overwrite.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-job"
        )

    # ------------------------------------------------------------- lifecycle

    async def start(self) -> None:
        """Bind the listener, recover journaled jobs, start workers."""
        self._loop = asyncio.get_running_loop()
        self._recover()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if not self.start_paused:
            self.resume_workers()
        self._log(
            f"repro service listening on http://{self.host}:{self.port} "
            f"(state: {self.state_dir}, cache: {self.engine.cache.directory})"
        )

    def _recover(self) -> None:
        """Replay the journal; re-enqueue every job that never finished."""
        records = replay_journal(self.journal.path)
        self._next_seq = next_seq(records)
        resumed = 0
        for record in records:
            job = _Job(record)
            self.jobs[record.id] = job
            if record.state in ("queued", "running"):
                record.state = "queued"
                self._queue.put_nowait(record.id)
                resumed += 1
        if resumed:
            self._log(f"journal recovery: resuming {resumed} incomplete job(s)")

    def resume_workers(self) -> None:
        """Start the worker task (no-op if already running)."""
        assert self._loop is not None
        if not self._worker_tasks:
            self._worker_tasks.append(self._loop.create_task(self._worker_loop()))

    async def stop(self) -> int:
        """Graceful shutdown; returns the process exit code.

        Stops admission, cancels running jobs at their next cell boundary,
        waits for worker threads to unwind, flushes/closes the journal.
        Returns ``EXIT_INTERRUPTED`` when a running job was cut short (it
        stays incomplete in the journal and resumes on restart), else 0.
        """
        self._stop.set()
        self.fleet.wake()  # distributed job threads re-check _stop now
        if self._server is not None:
            self._server.close()
            # Answer in-flight /events long-polls now: wait_closed() waits for
            # open connections (Python 3.12+), and on older versions a poll
            # left pending would hang its client until the socket timeout.
            for job in self.jobs.values():
                job.wake_waiters()
            await self._server.wait_closed()
        # Join the worker *threads* first: they observe _stop at their next
        # cell boundary and return a "cancelled" outcome, which the worker
        # tasks must still be alive to record (cancelling the tasks first
        # would discard the outcome with the cancelled future).
        await asyncio.get_running_loop().run_in_executor(
            None, lambda: self._executor.shutdown(wait=True)
        )
        for _ in range(500):  # let outcome processing drain (bounded ~5s)
            if not any(
                job.record.state == "running" for job in self.jobs.values()
            ):
                break
            await asyncio.sleep(0.01)
        for task in self._worker_tasks:
            task.cancel()
        await asyncio.gather(*self._worker_tasks, return_exceptions=True)
        self._worker_tasks.clear()
        self.journal.close()
        return EXIT_INTERRUPTED if self._interrupted_jobs else EXIT_OK

    # ------------------------------------------------------------ job worker

    async def _worker_loop(self) -> None:
        """Run queued jobs one at a time.

        The journal's fsync'd appends and the result file are written in the
        loop's default executor, never on the loop itself, so requests keep
        being answered while they run.  A finished job's order is: result
        file, ``finished`` fsync, then state ``done`` and the ``done`` event.
        """
        loop = self._loop
        assert loop is not None
        while True:
            job_id = await self._queue.get()
            job = self.jobs.get(job_id)
            if job is None or job.record.state not in ("queued",):
                continue
            job.record.state = "running"
            await loop.run_in_executor(
                None, self.journal.append, {"event": "started", "id": job_id}
            )
            self._post_event(job, {"type": "started"})
            try:
                if self._stop.is_set():
                    # stop() began during the append and is shutting the job
                    # thread down: leave the job to resume on the next start.
                    outcome: Tuple[Any, ...] = ("cancelled", None, None, None)
                else:
                    outcome = await loop.run_in_executor(
                        self._executor, self._execute_job, job
                    )
            except asyncio.CancelledError:
                # stop() cancelled us mid-await; the thread unwinds on its
                # own via the _stop flag and the job resumes next start.
                raise
            except BaseException as exc:  # noqa: BLE001
                # _execute_job never raises, but the await around it can
                # (executor shutdown races, broken futures).  Swallowing
                # this here used to kill the worker task and strand the job
                # in "running" forever — fail it loudly instead.
                outcome = (
                    "failed", 500, f"{type(exc).__name__}: {exc}",
                    traceback.format_exc(),
                )
            kind = outcome[0]
            try:
                if kind == "ok":
                    _, result_text, accounting, _ = outcome
                    await loop.run_in_executor(
                        None, self._record_result, job_id, result_text, accounting
                    )
                    job.record.accounting = accounting
                    job.record.state = "done"
                    self._post_event(job, {"type": "done", "accounting": accounting})
                    self._log(f"job {job_id} done: {accounting}")
                elif kind == "cancelled":
                    # No journal event: the job is still queued/running on disk
                    # and will be resumed by the next daemon start.
                    job.record.state = "queued"
                    self._interrupted_jobs += 1
                    self._log(f"job {job_id} interrupted; will resume on restart")
                else:
                    await self._fail_job(job, outcome)
            except asyncio.CancelledError:
                raise
            except BaseException as exc:  # noqa: BLE001 — e.g. a result-write OSError
                await self._fail_job(
                    job,
                    ("failed", 500, f"{type(exc).__name__}: {exc}",
                     traceback.format_exc()),
                )

    def _record_result(
        self, job_id: str, result_text: str, accounting: Dict[str, int]
    ) -> None:
        """Write a finished job's result file, then journal it ``finished``."""
        write_json_text(self._result_path(job_id), result_text)
        self.journal.append(
            {"event": "finished", "id": job_id, "accounting": accounting}
        )

    async def _fail_job(self, job: _Job, outcome: Tuple[Any, ...]) -> None:
        """Journal, then publish, a terminal failure (traceback included)."""
        _, status, message, trace = outcome
        job_id = job.record.id
        event: Dict[str, Any] = {
            "event": "failed", "id": job_id, "status": status, "error": message,
        }
        if trace is not None:
            event["traceback"] = trace
        assert self._loop is not None
        await self._loop.run_in_executor(None, self.journal.append, event)
        job.record.state = "failed"
        job.record.error = message
        job.record.error_status = status
        job.record.error_traceback = trace
        self._post_event(
            job, {"type": "failed", "status": status, "error": message}
        )
        self._log(f"job {job_id} failed ({status}): {message}")

    def _execute_job(self, job: _Job) -> Tuple[Any, ...]:
        """Run one job in the job thread; never raises (returns outcomes).

        The uncached cells go to the fleet's executor for this job, with the
        engine's :meth:`~repro.simulation.engine.ExperimentEngine.execute` as
        its local executor.  Per-job accounting is counted from the engine's
        progress callback.
        """
        counts = {"total": 0, "cached": 0, "simulated": 0}
        loop = self._loop
        assert loop is not None

        def progress(done: int, total: int, kind: str) -> None:
            if self._stop.is_set():
                raise JobCancelled()
            counts[kind] += 1
            counts["total"] = total
            loop.call_soon_threadsafe(
                self._post_event,
                job,
                {"type": "cell", "done": done, "total": total, "source": kind},
            )

        try:
            parsed: ParsedDocument = parse_document(job.record.document)
            result_text = parsed.execute(
                self.engine,
                progress=progress,
                executor=self.fleet.make_executor(job.record, self.engine.execute),
            )
        except JobCancelled:
            return ("cancelled", None, None, None)
        except BadSpecError as exc:
            return ("failed", 400, str(exc), traceback.format_exc())
        except BaseException as exc:  # noqa: BLE001 — worker must not leak
            return (
                "failed", 500, f"{type(exc).__name__}: {exc}",
                traceback.format_exc(),
            )
        return ("ok", result_text, counts, None)

    def _result_path(self, job_id: str) -> Path:
        """The file holding a finished job's result document."""
        return self.results_dir / f"{job_id}.json"

    # -------------------------------------------------------------- events

    def _fleet_event_sink(self, job_id: str, event: Dict[str, Any]) -> None:
        """Fleet lifecycle events -> the job's event stream (any thread)."""
        job = self.jobs.get(job_id)
        if job is None or self._loop is None or self._loop.is_closed():
            return
        try:
            self._loop.call_soon_threadsafe(self._post_event, job, dict(event))
        except RuntimeError:
            pass  # loop shut down between the check and the call

    def _post_event(self, job: _Job, event: Dict[str, Any]) -> None:
        """Append one progress event and wake every long-poll waiter."""
        event = dict(event)
        event["seq"] = len(job.events) + 1
        job.events.append(event)
        job.wake_waiters()

    async def _wait_for_events(self, job: _Job, after: int, timeout: float) -> None:
        """Block until a poll for ``job``'s events beyond ``after`` is answered.

        At once when the job is terminal, the daemon is stopping, or an
        undelivered event changes the job's state (:data:`STATE_EVENTS`).
        Otherwise the poll waits up to ``timeout`` for a first undelivered
        event, then gathers more for up to :data:`EVENT_BATCH_WINDOW`, so a
        burst of cell events costs one response instead of one each.
        """
        loop = self._loop
        assert loop is not None
        deadline = loop.time() + timeout
        checked = after
        while not (job.terminal or self._stop.is_set()):
            fresh = job.events[checked:]
            if any(event["type"] in STATE_EVENTS for event in fresh):
                return
            if fresh:
                if checked == after:
                    deadline = min(deadline, loop.time() + EVENT_BATCH_WINDOW)
                checked += len(fresh)
            remaining = deadline - loop.time()
            if remaining <= 0:
                return
            waiter: asyncio.Future = loop.create_future()
            job.waiters.append(waiter)
            try:
                await asyncio.wait_for(waiter, remaining)
            except asyncio.TimeoutError:
                return

    # ------------------------------------------------------------ admission

    def queued_jobs(self) -> int:
        """Jobs admitted but not yet running (the admission bound's measure)."""
        return sum(1 for job in self.jobs.values() if job.record.state == "queued")

    async def _admit(self, document: Any) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        """``POST /v1/jobs``: validate, dedupe-probe, journal, enqueue."""
        if self.queued_jobs() >= self.max_queue:
            return (
                429,
                {
                    "error": "admission queue is full",
                    "queued": self.queued_jobs(),
                    "max_queue": self.max_queue,
                    "retry_after": self.retry_after,
                },
                {"Retry-After": str(int(max(1, self.retry_after)))},
            )
        assert self._loop is not None
        # Parsing reads trace headers and the dedupe probe stats cache files:
        # both are I/O, so neither runs on the event loop.
        parsed = await self._loop.run_in_executor(
            None, lambda: parse_document(document)
        )
        cells = await self._loop.run_in_executor(
            None, lambda: parsed.cache_probe(self.engine)
        )
        if self.queued_jobs() >= self.max_queue:  # re-check across the await
            return (
                429,
                {
                    "error": "admission queue is full",
                    "queued": self.queued_jobs(),
                    "max_queue": self.max_queue,
                    "retry_after": self.retry_after,
                },
                {"Retry-After": str(int(max(1, self.retry_after)))},
            )
        seq = self._next_seq
        self._next_seq += 1
        job_id = f"j{seq:06d}"
        record = JobRecord(
            id=job_id,
            seq=seq,
            document=parsed.document,
            description=parsed.describe(),
            cells=cells,
        )
        job = _Job(record)
        self.jobs[job_id] = job
        # Durability point: the fsync'd submitted event *is* the admission.
        # Only after it returns may the client be told the job exists.
        await self._loop.run_in_executor(
            None,
            self.journal.append,
            {
                "event": "submitted",
                "id": job_id,
                "seq": seq,
                "document": parsed.document,
                "description": record.description,
                "cells": cells,
            },
        )
        self._queue.put_nowait(job_id)
        self._log(f"job {job_id} admitted: {record.description} (cells: {cells})")
        return 202, {"id": job_id, "state": "queued", "cells": cells}, {}

    # ----------------------------------------------------------- HTTP layer

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        status, payload, headers = 500, {"error": "internal error"}, {}
        drop_response = False
        delay = 0.0
        try:
            request = await self._read_request(reader)
            if request is None:
                return  # client closed without sending a request
            fault = self._fault_action(request[0], request[1])
            if fault is not None and fault[0] == "drop":
                writer.close()
                return  # connection dies before the daemon acts
            if fault is not None and fault[0] == "error":
                status, payload = int(fault[1]), {"error": "injected fault"}
            else:
                if fault is not None and fault[0] == "drop-after":
                    drop_response = True  # daemon acts; client never hears
                elif fault is not None and fault[0] == "delay":
                    delay = float(fault[1])
                status, payload, headers = await self._dispatch(*request)
        except _HttpError as exc:
            status, payload, headers = exc.status, {"error": exc.message}, {}
        except FleetProtocolError as exc:
            status, payload, headers = exc.status, {"error": exc.message}, {}
        except BadSpecError as exc:
            status, payload, headers = 400, {"error": str(exc)}, {}
        except Exception as exc:  # noqa: BLE001 — a request must never kill the loop
            status, payload, headers = 500, {"error": f"{type(exc).__name__}: {exc}"}, {}
        if drop_response:
            writer.close()
            return
        if delay:
            await asyncio.sleep(delay)
        try:
            if isinstance(payload, bytes):
                body = payload
            else:
                body = json.dumps(payload).encode()
            lines = [
                f"HTTP/1.1 {status} {_HTTP_REASONS.get(status, 'Unknown')}",
                "Content-Type: application/json",
                f"Content-Length: {len(body)}",
                "Connection: close",
            ]
            lines.extend(f"{name}: {value}" for name, value in headers.items())
            writer.write(("\r\n".join(lines) + "\r\n\r\n").encode() + body)
            await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _fault_action(self, method: str, path: str) -> Optional[Tuple[Any, ...]]:
        """Consult the chaos plan (if any) for this request; None = healthy."""
        if self.fault_plan is None:
            return None
        on_request = getattr(self.fault_plan, "on_request", None)
        if on_request is None:
            return None
        return on_request(method, path)

    @staticmethod
    async def _read_request(
        reader: asyncio.StreamReader,
    ) -> Optional[Tuple[str, str, Dict[str, List[str]], Any]]:
        try:
            request_line = await reader.readline()
        except (asyncio.LimitOverrunError, ValueError):
            raise _HttpError(400, "request line too long")
        if not request_line.strip():
            return None
        try:
            method, target, _version = request_line.decode("ascii").split()
        except ValueError:
            raise _HttpError(400, "malformed request line")
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        body: Any = None
        length = int(headers.get("content-length", 0) or 0)
        if length > MAX_BODY_BYTES:
            raise _HttpError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
        if length:
            raw = await reader.readexactly(length)
            try:
                body = json.loads(raw)
            except ValueError:
                raise _HttpError(400, "request body is not valid JSON")
        parts = urlsplit(target)
        return method.upper(), parts.path.rstrip("/"), parse_qs(parts.query), body

    async def _dispatch(
        self, method: str, path: str, query: Dict[str, List[str]], body: Any
    ) -> Tuple[int, Union[Dict[str, Any], bytes], Dict[str, str]]:
        if path == "/v1/jobs":
            if method == "POST":
                return await self._admit(body)
            if method == "GET":
                return (
                    200,
                    {"jobs": [job.record.summary() for job in self.jobs.values()]},
                    {},
                )
            raise _HttpError(405, f"{method} not supported on {path}")
        if path == "/v1/status":
            if method != "GET":
                raise _HttpError(405, f"{method} not supported on {path}")
            states: Dict[str, int] = {}
            for job in self.jobs.values():
                states[job.record.state] = states.get(job.record.state, 0) + 1
            return (
                200,
                {
                    "state_dir": str(self.state_dir),
                    "jobs": states,
                    "queued": self.queued_jobs(),
                    "max_queue": self.max_queue,
                    "workers": self.engine.workers,
                    "paused": not self._worker_tasks,
                    "cache": self.engine.cache.stats().to_dict(),
                    "fleet": self.fleet.snapshot(),
                },
                {},
            )
        if path == "/v1/workers":
            if method == "POST":
                name = (body or {}).get("name")
                return 200, self.fleet.register(name), {}
            if method == "GET":
                return 200, self.fleet.snapshot(), {}
            raise _HttpError(405, f"{method} not supported on {path}")
        if path.startswith("/v1/workers/"):
            return await self._dispatch_worker(method, path, body)
        if path == "/v1/cache/stats":
            if method != "GET":
                raise _HttpError(405, f"{method} not supported on {path}")
            return 200, self.engine.cache.stats().to_dict(), {}
        if path == "/v1/cache/prune":
            if method != "POST":
                raise _HttpError(405, f"{method} not supported on {path}")
            max_bytes = (body or {}).get("max_bytes")
            if max_bytes is None and self.engine.cache.max_bytes is None:
                raise _HttpError(
                    400, "prune needs max_bytes (service has no configured bound)"
                )
            assert self._loop is not None
            result = await self._loop.run_in_executor(
                None, lambda: self.engine.cache.prune(max_bytes)
            )
            return 200, result.to_dict(), {}
        if path.startswith("/v1/jobs/"):
            return await self._dispatch_job(method, path, query)
        raise _HttpError(404, f"no route for {path!r}")

    async def _dispatch_worker(
        self, method: str, path: str, body: Any
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        """The fleet's worker API: ``/v1/workers/<id>[/<verb>]``.

        ``claim`` and ``complete`` append fsync'd journal events, so both
        run in an executor thread instead of blocking the event loop.
        """
        parts = path.split("/")  # ['', 'v1', 'workers', '<id>', maybe verb]
        worker_id = parts[3]
        assert self._loop is not None
        if len(parts) == 4:
            if method != "DELETE":
                raise _HttpError(405, f"{method} not supported on {path}")
            return 200, self.fleet.deregister(worker_id), {}
        if len(parts) != 5:
            raise _HttpError(404, f"no route for {path!r}")
        verb = parts[4]
        if method != "POST":
            raise _HttpError(405, f"{method} not supported on {path}")
        if verb == "claim":
            max_cells = int((body or {}).get("max_cells", 1))
            reply = await self._loop.run_in_executor(
                None, lambda: self.fleet.claim(worker_id, max_cells)
            )
            return 200, reply, {}
        if verb == "heartbeat":
            leases = [str(lease) for lease in (body or {}).get("leases", [])]
            return 200, self.fleet.heartbeat(worker_id, leases), {}
        if verb == "complete":
            lease_id = str((body or {}).get("lease", ""))
            outcomes = (body or {}).get("outcomes", [])
            if not isinstance(outcomes, list):
                raise _HttpError(400, "outcomes must be a list")
            reply = await self._loop.run_in_executor(
                None, lambda: self.fleet.complete(worker_id, lease_id, outcomes)
            )
            return 200, reply, {}
        if verb == "drain":
            return 200, self.fleet.drain(worker_id), {}
        raise _HttpError(404, f"no route for {path!r}")

    async def _dispatch_job(
        self, method: str, path: str, query: Dict[str, List[str]]
    ) -> Tuple[int, Union[Dict[str, Any], bytes], Dict[str, str]]:
        """``/v1/jobs/<id>[/events|/result]``.

        A result response is the stored result document spliced, as bytes,
        into the ``{"id", "kind", "accounting"}`` envelope.
        """
        parts = path.split("/")  # ['', 'v1', 'jobs', '<id>', maybe more]
        job = self.jobs.get(parts[3])
        if job is None:
            raise _HttpError(404, f"no such job {parts[3]!r}")
        if len(parts) == 4:
            if method != "GET":
                raise _HttpError(405, f"{method} not supported on {path}")
            summary = job.record.summary()
            summary["events"] = len(job.events)
            return 200, summary, {}
        if len(parts) == 5 and parts[4] == "events":
            if method != "GET":
                raise _HttpError(405, f"{method} not supported on {path}")
            after, timeout = _events_query(query)
            await self._wait_for_events(job, after, timeout)
            events = job.events[after:]  # event n is job.events[n - 1]
            return (
                200,
                {
                    "id": job.record.id,
                    "state": job.record.state,
                    "events": events,
                    "next": after + len(events),
                },
                {},
            )
        if len(parts) == 5 and parts[4] == "result":
            if method != "GET":
                raise _HttpError(405, f"{method} not supported on {path}")
            if job.record.state == "failed":
                return (
                    job.record.error_status,
                    {"error": job.record.error, "id": job.record.id},
                    {},
                )
            if job.record.state != "done":
                raise _HttpError(
                    404, f"job {job.record.id} is {job.record.state}, not done"
                )
            assert self._loop is not None
            try:
                stored = await self._loop.run_in_executor(
                    None, _read_stored_json, self._result_path(job.record.id)
                )
            except (OSError, ValueError):
                raise _HttpError(
                    500, f"result document for {job.record.id} is missing/corrupt"
                )
            envelope = json.dumps(
                {
                    "id": job.record.id,
                    "kind": job.record.document.get("kind"),
                    "accounting": job.record.accounting,
                }
            )
            # The stored bytes are already json.dumps output, so splicing them
            # in as the last member gives the same body as encoding the whole
            # envelope, without decoding and re-encoding the result.
            body = envelope[:-1].encode() + b', "result": ' + stored + b"}"
            return 200, body, {}
        raise _HttpError(404, f"no route for {path!r}")


def _events_query(query: Dict[str, List[str]]) -> Tuple[int, float]:
    """``/events``' ``after`` cursor and ``timeout`` (capped at 120 s), checked.

    ``after`` must be a non-negative integer and ``timeout`` a finite number;
    anything else is a 400, not an internal error.
    """
    after_text = query.get("after", ["0"])[0]
    try:
        after = int(after_text)
    except ValueError:
        after = -1
    if after < 0:
        raise _HttpError(
            400, f"after must be a non-negative integer, got {after_text!r}"
        )
    timeout_text = query.get("timeout", [str(DEFAULT_EVENT_TIMEOUT)])[0]
    try:
        timeout = float(timeout_text)
    except ValueError:
        timeout = math.nan
    if not math.isfinite(timeout):
        raise _HttpError(
            400, f"timeout must be a finite number, got {timeout_text!r}"
        )
    return after, min(timeout, 120.0)


def _read_stored_json(path: Path) -> bytes:
    """A stored JSON document's bytes, after checking that they decode."""
    raw = path.read_bytes()
    json.loads(raw)
    return raw


class _HttpError(Exception):
    """An HTTP-visible request error."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


# ----------------------------------------------------------- embedding helpers


class ServiceThread:
    """Run an :class:`ExperimentService` on a background event loop.

    The test suite's (and any embedder's) way to get a real listening server
    without blocking the calling thread::

        handle = ServiceThread(state_dir=tmp, max_queue=2)
        try:
            client = ServiceClient(handle.base_url)
            ...
        finally:
            handle.stop()
    """

    def __init__(self, **service_kwargs: Any) -> None:
        self.service: Optional[ExperimentService] = None
        self.error: Optional[BaseException] = None
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread = threading.Thread(
            target=self._run, kwargs=service_kwargs, daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("service thread failed to start within 30s")
        if self.error is not None:
            raise self.error

    def _run(self, **service_kwargs: Any) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        try:
            self.service = ExperimentService(**service_kwargs)
            self._loop.run_until_complete(self.service.start())
        except BaseException as exc:  # noqa: BLE001 — surfaced to the caller
            self.error = exc
            self._ready.set()
            return
        self._ready.set()
        self._loop.run_forever()

    @property
    def base_url(self) -> str:
        assert self.service is not None
        return f"http://{self.service.host}:{self.service.port}"

    def resume(self) -> None:
        """Start the workers of a ``start_paused=True`` service."""
        assert self._loop is not None and self.service is not None
        self._loop.call_soon_threadsafe(self.service.resume_workers)

    def stop(self, timeout: float = 30.0) -> int:
        """Gracefully stop the service and join its thread."""
        assert self._loop is not None and self.service is not None
        future = asyncio.run_coroutine_threadsafe(self.service.stop(), self._loop)
        code = future.result(timeout=timeout)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=timeout)
        self._loop.close()
        return code


async def serve(service: ExperimentService) -> int:
    """Run ``service`` until SIGINT/SIGTERM; returns the process exit code."""
    await service.start()
    loop = asyncio.get_running_loop()
    stop_requested = asyncio.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop_requested.set)
        except (NotImplementedError, RuntimeError):
            # Platforms without loop signal support fall back to the default
            # KeyboardInterrupt path, which the CLI maps to EXIT_INTERRUPTED.
            pass
    await stop_requested.wait()
    print("shutting down: flushing journal ...", file=sys.stderr)
    return await service.stop()


__all__ = [
    "DEFAULT_EVENT_TIMEOUT",
    "EVENT_BATCH_WINDOW",
    "ExperimentService",
    "MAX_BODY_BYTES",
    "ServiceThread",
    "serve",
]
