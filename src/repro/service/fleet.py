"""Lease-based fleet coordination: surviving worker death without corruption.

The daemon owns a :class:`FleetCoordinator`; remote workers (``repro work``,
:mod:`repro.service.worker`) pull **cell batches** from it over HTTP.  The
protocol is built so that *any* worker can disappear at *any* moment — SIGKILL,
network partition, OOM — and the job still completes with results bit-identical
to a serial in-process run:

* **Leases.**  A claim hands a worker up to ``max_cells`` cells under a lease
  with a deadline.  Heartbeats renew it; a worker that stops heartbeating
  (dead or partitioned) lets the lease expire, and the coordinator *reclaims*
  it — every unfinished cell goes back to the pending queue for someone else.
  Completions quote their lease; a completion under an expired/reclaimed lease
  is rejected as **stale**, so a partitioned-but-alive worker racing its own
  replacement can never double-deliver a cell.  The daemon is the only writer
  of the result cache, and it writes each cell exactly once.
* **Attempts and quarantine.**  Every claim (remote or local fallback)
  increments the cell's attempt count — journaled, so it survives a daemon
  restart.  A cell that is claimed ``max_attempts`` times without ever
  completing (it keeps crashing workers, or keeps raising) is **quarantined**:
  parked with its last traceback on the job record, and the job fails promptly
  with :class:`~repro.errors.CellQuarantined` instead of retrying forever.
* **Graceful degradation.**  A job only enters the fleet path when workers are
  registered.  If every worker dies or partitions mid-job (no heartbeat within
  ``worker_timeout``), the coordinator's run loop executes the remaining cells
  *locally* in the job thread — a fully partitioned fleet degrades to the
  in-process path instead of hanging.
* **Draining.**  ``POST /v1/workers/<id>/drain`` marks a worker draining: its
  next claim/heartbeat tells it to finish the current batch, deregister, and
  exit cleanly — no cells are abandoned, no leases expire.

Fault injection: a ``fault_plan`` (see ``tests/chaos.py``) may force leases to
expire early; the HTTP layer consults the same plan to drop or delay
responses.  All chaos is deterministic — triggered by counters, not clocks —
so every robustness claim above is provable by digest-identical tests.
"""

from __future__ import annotations

import threading
import time
import traceback
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.errors import CellQuarantined, JobCancelled
from repro.simulation.engine import execute_cell_payload, job_cache_key

#: Seconds a lease stays valid without a renewal.
DEFAULT_LEASE_TTL = 15.0

#: Claims (remote or local) a cell may consume before quarantine.
DEFAULT_MAX_ATTEMPTS = 3

#: Seconds without any worker contact before the fleet counts as partitioned
#: (expressed as a multiple of the lease TTL).
WORKER_TIMEOUT_FACTOR = 2.0

#: Run-loop poll granularity (seconds): how often an executing job thread
#: sweeps expired leases and checks for the local-fallback condition.
DEFAULT_TICK = 0.05

#: Hex prefix length of a cell's content hash used as its wire/journal id.
CELL_ID_HEX = 16


class FleetProtocolError(Exception):
    """A worker API call the coordinator must reject (maps to HTTP)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


class WorkerInfo:
    """One registered worker's liveness and accounting."""

    __slots__ = (
        "id", "name", "state", "registered_at", "last_seen",
        "claims", "cells_completed", "cells_failed",
    )

    def __init__(self, worker_id: str, name: str, now: float) -> None:
        self.id = worker_id
        self.name = name
        self.state = "active"  # active | draining
        self.registered_at = now
        self.last_seen = now
        self.claims = 0
        self.cells_completed = 0
        self.cells_failed = 0

    def summary(self, now: float) -> Dict[str, Any]:
        return {
            "id": self.id,
            "name": self.name,
            "state": self.state,
            "idle_s": round(max(0.0, now - self.last_seen), 3),
            "claims": self.claims,
            "cells_completed": self.cells_completed,
            "cells_failed": self.cells_failed,
        }


class Lease:
    """One claim's grant: a worker, its cells, and a renewal deadline."""

    __slots__ = ("id", "worker_id", "job_id", "cell_ids", "deadline", "state")

    def __init__(
        self, lease_id: str, worker_id: str, job_id: str,
        cell_ids: List[str], deadline: float,
    ) -> None:
        self.id = lease_id
        self.worker_id = worker_id
        self.job_id = job_id
        self.cell_ids = cell_ids
        self.deadline = deadline
        self.state = "active"  # active | completed | reclaimed | stale


class _Cell:
    """One pending payload of a distributed run."""

    __slots__ = ("cell_id", "offset", "payload", "attempts", "state", "lease_id")

    def __init__(self, cell_id: str, offset: int, payload: Dict[str, Any]) -> None:
        self.cell_id = cell_id
        self.offset = offset
        self.payload = payload
        self.attempts = 0
        self.state = "pending"  # pending | leased | local | done | quarantined
        self.lease_id: Optional[str] = None


class _FleetRun:
    """One job's cells while its executing thread sits in ``execute()``."""

    def __init__(self, record: Any, payloads: Sequence[Dict[str, Any]]) -> None:
        self.record = record
        self.job_id = record.id
        self.cells: Dict[str, _Cell] = {}
        #: Claimable by remote workers (payloads with no in-memory trace).
        self.pending_remote: deque = deque()
        #: Payloads that cannot cross the wire; executed by the job thread.
        self.pending_local: deque = deque()
        #: Completions not yet delivered to the engine's ``on_result``.
        self.ready: List[Any] = []
        self.done = 0
        #: First quarantined cell ``(cell, cause)``; poisons the whole run.
        self.poison: Optional[Any] = None
        seen: Dict[str, int] = {}
        for offset, payload in enumerate(payloads):
            base = job_cache_key(payload)[:CELL_ID_HEX]
            dup = seen.get(base, 0)
            seen[base] = dup + 1
            cell_id = base if dup == 0 else f"{base}#{dup}"
            cell = _Cell(cell_id, offset, payload)
            cell.attempts = int(record.attempts.get(cell_id, 0))
            self.cells[cell_id] = cell
            if cell_id in record.quarantined:
                # Parked in a previous daemon life: stay parked.
                cell.state = "quarantined"
                if self.poison is None:
                    self.poison = (cell, record.quarantined[cell_id])
            elif payload.get("trace") is not None:
                self.pending_local.append(cell_id)
            else:
                self.pending_remote.append(cell_id)

    @property
    def finished(self) -> bool:
        return self.done >= len(self.cells)

    def take_ready(self) -> List[Any]:
        ready, self.ready = self.ready, []
        return ready


class FleetCoordinator:
    """Thread-safe broker between executing job threads and remote workers.

    Worker-facing methods (:meth:`register`, :meth:`claim`, :meth:`heartbeat`,
    :meth:`complete`, :meth:`drain`, :meth:`deregister`) are called from the
    server's HTTP handlers; :meth:`execute` is the engine's cell-batch
    executor seam, called from a job's executor thread and blocking until
    every cell is delivered (or the run is poisoned/cancelled).  One lock
    guards all state; a condition variable wakes executing threads when
    results arrive or leases change.
    """

    def __init__(
        self,
        journal: Optional[Any] = None,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        worker_timeout: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
        stop_event: Optional[threading.Event] = None,
        fault_plan: Optional[Any] = None,
        event_sink: Optional[Callable[[str, Dict[str, Any]], None]] = None,
        tick: float = DEFAULT_TICK,
        log: Optional[Callable[[str], None]] = None,
    ) -> None:
        if lease_ttl <= 0:
            raise ValueError(f"lease_ttl must be > 0, got {lease_ttl}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.lease_ttl = lease_ttl
        self.max_attempts = max_attempts
        self.worker_timeout = (
            worker_timeout
            if worker_timeout is not None
            else WORKER_TIMEOUT_FACTOR * lease_ttl
        )
        self._journal = journal
        self._clock = clock
        self._stop = stop_event
        self._fault_plan = fault_plan
        self._event_sink = event_sink
        self._tick = tick
        self._log = log or (lambda line: None)
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self.workers: Dict[str, WorkerInfo] = {}
        self.leases: Dict[str, Lease] = {}
        self._runs: Dict[str, _FleetRun] = {}
        self._next_worker = 1
        self._next_lease = 1
        self.reclaimed_leases = 0
        self.stale_completions = 0

    # ------------------------------------------------------------ worker API

    def register(self, name: Optional[str] = None) -> Dict[str, Any]:
        """Admit a worker; returns its id and the protocol parameters."""
        with self._lock:
            worker_id = f"w{self._next_worker:04d}"
            self._next_worker += 1
            worker = WorkerInfo(worker_id, name or worker_id, self._clock())
            self.workers[worker_id] = worker
            self._cond.notify_all()
        self._log(f"fleet: worker {worker_id} ({worker.name}) registered")
        return {
            "worker": worker_id,
            "lease_ttl": self.lease_ttl,
            "heartbeat_every": self.lease_ttl / 3.0,
        }

    def claim(self, worker_id: str, max_cells: int = 1) -> Dict[str, Any]:
        """Grant up to ``max_cells`` pending cells under a fresh lease."""
        if max_cells < 1:
            raise FleetProtocolError(400, f"max_cells must be >= 1, got {max_cells}")
        with self._lock:
            worker = self._worker_locked(worker_id)
            now = self._clock()
            worker.last_seen = now
            self._sweep_locked(now)
            if worker.state == "draining":
                return {"worker": worker_id, "drain": True, "cells": []}
            for run in self._runs.values():
                if not run.pending_remote or run.poison is not None:
                    continue
                cell_ids: List[str] = []
                lease_id = f"L{self._next_lease:06d}"
                while run.pending_remote and len(cell_ids) < max_cells:
                    cell_id = run.pending_remote.popleft()
                    cell = run.cells[cell_id]
                    cell.state = "leased"
                    cell.lease_id = lease_id
                    cell.attempts += 1
                    run.record.attempts[cell_id] = cell.attempts
                    cell_ids.append(cell_id)
                self._next_lease += 1
                lease = Lease(
                    lease_id, worker_id, run.job_id, cell_ids, now + self.lease_ttl
                )
                self.leases[lease_id] = lease
                worker.claims += 1
                self._journal_append(
                    {"event": "lease", "action": "claim", "id": run.job_id,
                     "lease": lease_id, "worker": worker_id, "cells": cell_ids}
                )
                self._post_fleet_event(
                    run.job_id,
                    {"type": "fleet", "action": "claim", "lease": lease_id,
                     "worker": worker_id, "cells": len(cell_ids)},
                )
                return {
                    "worker": worker_id,
                    "drain": False,
                    "lease": {"id": lease_id, "deadline_s": self.lease_ttl},
                    "cells": [
                        {"cell": cid, "payload": run.cells[cid].payload}
                        for cid in cell_ids
                    ],
                }
            return {"worker": worker_id, "drain": False, "cells": []}

    def heartbeat(
        self, worker_id: str, lease_ids: Sequence[str] = ()
    ) -> Dict[str, Any]:
        """Renew liveness and the given leases; reports stale ones."""
        with self._lock:
            worker = self._worker_locked(worker_id)
            now = self._clock()
            worker.last_seen = now
            self._sweep_locked(now)
            stale: List[str] = []
            for lease_id in lease_ids:
                lease = self.leases.get(lease_id)
                if (
                    lease is not None
                    and lease.worker_id == worker_id
                    and lease.state == "active"
                ):
                    lease.deadline = now + self.lease_ttl
                else:
                    stale.append(lease_id)
            return {
                "worker": worker_id,
                "drain": worker.state == "draining",
                "stale": stale,
            }

    def complete(
        self, worker_id: str, lease_id: str, outcomes: Sequence[Dict[str, Any]]
    ) -> Dict[str, Any]:
        """Deliver a lease's results; stale leases are rejected whole.

        Each outcome is ``{"cell": id, "result": {...}}`` or ``{"cell": id,
        "error": traceback}``.  Cells the worker leased but did not report
        are requeued (the worker gave up on them).  The daemon writes the
        cache from these results exactly once — a second delivery (reclaimed
        lease, duplicated retry after a dropped response) is ``stale`` and
        discarded.
        """
        with self._lock:
            worker = self._worker_locked(worker_id)
            now = self._clock()
            worker.last_seen = now
            self._sweep_locked(now)
            lease = self.leases.get(lease_id)
            if (
                lease is None
                or lease.worker_id != worker_id
                or lease.state != "active"
            ):
                self.stale_completions += 1
                return {"accepted": 0, "stale": True}
            run = self._runs.get(lease.job_id)
            if run is None:
                lease.state = "stale"
                self.stale_completions += 1
                return {"accepted": 0, "stale": True}
            accepted = 0
            failed: List[str] = []
            reported = set()
            for outcome in outcomes:
                cell_id = str(outcome.get("cell"))
                cell = run.cells.get(cell_id)
                if cell is None or cell.lease_id != lease_id or cell.state != "leased":
                    continue
                reported.add(cell_id)
                if "result" in outcome:
                    cell.state = "done"
                    run.done += 1
                    run.ready.append((cell.offset, outcome["result"]))
                    worker.cells_completed += 1
                    accepted += 1
                else:
                    worker.cells_failed += 1
                    failed.append(cell_id)
                    self._cell_failed_locked(
                        run, cell, str(outcome.get("error", "worker error"))
                    )
            for cell_id in lease.cell_ids:
                if cell_id in reported:
                    continue
                cell = run.cells.get(cell_id)
                if cell is not None and cell.lease_id == lease_id and cell.state == "leased":
                    cell.state = "pending"
                    cell.lease_id = None
                    run.pending_remote.append(cell_id)
            lease.state = "completed"
            self._journal_append(
                {"event": "lease", "action": "complete", "id": run.job_id,
                 "lease": lease_id, "worker": worker_id,
                 "done": accepted, "failed": failed}
            )
            self._post_fleet_event(
                run.job_id,
                {"type": "fleet", "action": "complete", "lease": lease_id,
                 "worker": worker_id, "done": accepted, "failed": len(failed)},
            )
            self._cond.notify_all()
            return {"accepted": accepted, "stale": False}

    def drain(self, worker_id: str) -> Dict[str, Any]:
        """Mark a worker draining: finish the current batch, then exit."""
        with self._lock:
            worker = self._worker_locked(worker_id)
            worker.state = "draining"
        self._log(f"fleet: worker {worker_id} draining")
        return {"worker": worker_id, "state": "draining"}

    def deregister(self, worker_id: str) -> Dict[str, Any]:
        """Remove a worker; its outstanding leases are reclaimed immediately."""
        with self._lock:
            worker = self.workers.pop(worker_id, None)
            if worker is None:
                raise FleetProtocolError(404, f"unknown worker {worker_id!r}")
            now = self._clock()
            for lease in list(self.leases.values()):
                if lease.worker_id == worker_id and lease.state == "active":
                    self._reclaim_locked(lease, reason="deregistered")
            self._cond.notify_all()
        self._log(f"fleet: worker {worker_id} deregistered")
        return {"worker": worker_id, "state": "gone"}

    # -------------------------------------------------------------- fleet API

    def has_workers(self) -> bool:
        """Whether any worker is registered (the fleet-path gate)."""
        with self._lock:
            return bool(self.workers)

    def live_workers(self) -> int:
        """Workers heard from within ``worker_timeout`` and not draining."""
        with self._lock:
            return self._live_workers_locked(self._clock())

    def wake(self) -> None:
        """Wake every executing job thread (used by daemon shutdown)."""
        with self._lock:
            self._cond.notify_all()

    def snapshot(self) -> Dict[str, Any]:
        """Fleet state for ``GET /v1/status`` and ``GET /v1/workers``."""
        with self._lock:
            now = self._clock()
            return {
                "workers": [w.summary(now) for w in self.workers.values()],
                "live_workers": self._live_workers_locked(now),
                "active_leases": sum(
                    1 for lease in self.leases.values() if lease.state == "active"
                ),
                "reclaimed_leases": self.reclaimed_leases,
                "stale_completions": self.stale_completions,
                "distributed_jobs": len(self._runs),
                "lease_ttl": self.lease_ttl,
                "max_attempts": self.max_attempts,
            }

    def make_executor(self, record: Any) -> Callable:
        """The engine ``executor`` seam for one job (see ``run_jobs``)."""

        def executor(payloads, on_result):
            self.execute(record, payloads, on_result)

        return executor

    # ---------------------------------------------------------- the run loop

    def execute(
        self,
        record: Any,
        payloads: Sequence[Dict[str, Any]],
        on_result: Callable[[int, Dict[str, Any]], None],
        local_execute: Optional[Callable[[Dict[str, Any]], Dict[str, Any]]] = None,
    ) -> None:
        """Distribute ``payloads`` across the fleet; blocks until delivered.

        Runs in the job's executor thread.  Delivers every result through
        ``on_result(offset, result_dict)`` (the engine caches and accounts on
        its side).  Raises :class:`CellQuarantined` when a cell exhausts
        ``max_attempts`` and :class:`~repro.errors.JobCancelled` when the
        daemon is stopping.  With no live workers, remaining cells execute
        locally in this thread — the degradation path.
        """
        local_execute = local_execute or execute_cell_payload
        run = _FleetRun(record, payloads)
        with self._lock:
            self._runs[record.id] = run
            self._cond.notify_all()
        try:
            while True:
                if self._stop is not None and self._stop.is_set():
                    raise JobCancelled()
                with self._lock:
                    self._sweep_locked(self._clock())
                    ready = run.take_ready()
                    poison = run.poison
                for offset, produced in ready:
                    on_result(offset, produced)
                if poison is not None:
                    cell, cause = poison
                    cell_id = cell.cell_id if isinstance(cell, _Cell) else cell
                    attempts = record.attempts.get(cell_id, self.max_attempts)
                    raise CellQuarantined(
                        f"cell {cell_id} quarantined after {attempts} "
                        f"attempt(s); last failure:\n{cause}"
                    )
                with self._lock:
                    if run.finished and not run.ready:
                        return
                    cell = self._pop_local_cell_locked(run)
                if cell is not None:
                    self._execute_local(run, cell, local_execute)
                    continue
                with self._cond:
                    self._cond.wait(self._tick)
        finally:
            with self._lock:
                self._runs.pop(record.id, None)
                for lease in self.leases.values():
                    if lease.job_id == record.id and lease.state == "active":
                        lease.state = "stale"
                self._cond.notify_all()

    # ------------------------------------------------------------- internals

    def _worker_locked(self, worker_id: str) -> WorkerInfo:
        worker = self.workers.get(worker_id)
        if worker is None:
            raise FleetProtocolError(
                404, f"unknown worker {worker_id!r} (register first)"
            )
        return worker

    def _live_workers_locked(self, now: float) -> int:
        return sum(
            1
            for worker in self.workers.values()
            if worker.state == "active"
            and now - worker.last_seen <= self.worker_timeout
        )

    def _pop_local_cell_locked(self, run: _FleetRun) -> Optional[_Cell]:
        """Claim a cell for in-thread execution (fallback + wire-unsafe cells)."""
        cell_id: Optional[str] = None
        if run.pending_local:
            cell_id = run.pending_local.popleft()
        elif run.pending_remote and not self._live_workers_locked(self._clock()):
            cell_id = run.pending_remote.popleft()
        if cell_id is None:
            return None
        cell = run.cells[cell_id]
        cell.state = "local"
        cell.lease_id = None
        cell.attempts += 1
        run.record.attempts[cell_id] = cell.attempts
        self._journal_append(
            {"event": "lease", "action": "claim", "id": run.job_id,
             "lease": "local", "worker": "local", "cells": [cell_id]}
        )
        return cell

    def _execute_local(
        self, run: _FleetRun, cell: _Cell, local_execute: Callable
    ) -> None:
        """Run one cell in the job thread; failures count toward quarantine."""
        try:
            produced = local_execute(cell.payload)
        except JobCancelled:
            raise
        except Exception:
            with self._lock:
                self._cell_failed_locked(run, cell, traceback.format_exc())
            return
        with self._lock:
            cell.state = "done"
            run.done += 1
            run.ready.append((cell.offset, produced))
            self._cond.notify_all()

    def _cell_failed_locked(self, run: _FleetRun, cell: _Cell, cause: str) -> None:
        """One attempt failed: requeue the cell, or quarantine it."""
        cell.lease_id = None
        if cell.attempts >= self.max_attempts:
            self._quarantine_locked(run, cell, cause)
            return
        cell.state = "pending"
        if cell.payload.get("trace") is not None:
            run.pending_local.append(cell.cell_id)
        else:
            run.pending_remote.append(cell.cell_id)
        self._cond.notify_all()

    def _quarantine_locked(self, run: _FleetRun, cell: _Cell, cause: str) -> None:
        cell.state = "quarantined"
        run.record.quarantined[cell.cell_id] = cause
        if run.poison is None:
            run.poison = (cell, cause)
        self._journal_append(
            {"event": "quarantined", "id": run.job_id, "cell": cell.cell_id,
             "attempts": cell.attempts, "error": cause}
        )
        self._post_fleet_event(
            run.job_id,
            {"type": "fleet", "action": "quarantine", "cell": cell.cell_id,
             "attempts": cell.attempts},
        )
        self._log(
            f"fleet: cell {cell.cell_id} of {run.job_id} quarantined "
            f"after {cell.attempts} attempt(s)"
        )
        self._cond.notify_all()

    def _sweep_locked(self, now: float) -> None:
        """Reclaim expired leases (and fault-plan-forced early expiries)."""
        for lease in list(self.leases.values()):
            if lease.state != "active":
                continue
            expired = now > lease.deadline
            if not expired and self._fault_plan is not None:
                expire = getattr(self._fault_plan, "expire_lease", None)
                if expire is not None and expire(lease.id, lease.worker_id):
                    expired = True
            if expired:
                self._reclaim_locked(lease, reason="expired")

    def _reclaim_locked(self, lease: Lease, reason: str) -> None:
        lease.state = "reclaimed"
        self.reclaimed_leases += 1
        run = self._runs.get(lease.job_id)
        requeued: List[str] = []
        quarantined: List[str] = []
        if run is not None:
            for cell_id in lease.cell_ids:
                cell = run.cells.get(cell_id)
                if cell is None or cell.lease_id != lease.id or cell.state != "leased":
                    continue  # already delivered or re-leased
                if cell.attempts >= self.max_attempts:
                    self._quarantine_locked(
                        run, cell,
                        f"worker {lease.worker_id} lost lease {lease.id} "
                        f"({reason}) on attempt {cell.attempts}",
                    )
                    quarantined.append(cell_id)
                else:
                    cell.state = "pending"
                    cell.lease_id = None
                    run.pending_remote.append(cell_id)
                    requeued.append(cell_id)
        self._journal_append(
            {"event": "lease", "action": "reclaim", "id": lease.job_id,
             "lease": lease.id, "worker": lease.worker_id, "reason": reason,
             "requeued": requeued, "quarantined": quarantined}
        )
        self._post_fleet_event(
            lease.job_id,
            {"type": "fleet", "action": "reclaim", "lease": lease.id,
             "worker": lease.worker_id, "requeued": len(requeued)},
        )
        self._log(
            f"fleet: lease {lease.id} ({lease.worker_id}) reclaimed "
            f"[{reason}]: {len(requeued)} cell(s) requeued, "
            f"{len(quarantined)} quarantined"
        )
        self._cond.notify_all()

    def _journal_append(self, event: Dict[str, Any]) -> None:
        if self._journal is not None:
            self._journal.append(event)

    def _post_fleet_event(self, job_id: str, event: Dict[str, Any]) -> None:
        if self._event_sink is not None:
            self._event_sink(job_id, event)


__all__ = [
    "CELL_ID_HEX",
    "DEFAULT_LEASE_TTL",
    "DEFAULT_MAX_ATTEMPTS",
    "DEFAULT_TICK",
    "FleetCoordinator",
    "FleetProtocolError",
    "Lease",
    "WorkerInfo",
]
