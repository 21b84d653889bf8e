"""The durable job queue: an fsync'd append-only journal plus its replay.

Durability contract: the admission response for ``POST /v1/jobs`` is not
sent until the job's ``submitted`` event is flushed *and fsync'd* to the
journal.  From that moment a killed daemon cannot lose the job — on restart
:func:`replay_journal` folds the event log into per-job records, and every
job whose latest state is ``queued`` or ``running`` is re-enqueued (the
result cache makes re-execution of already-finished cells free, so a job
killed mid-run only re-simulates its unfinished cells).

The journal is JSON-lines, one event per line::

    {"event": "submitted",   "id": "j000001", "seq": 1, "document": {...}}
    {"event": "started",     "id": "j000001"}
    {"event": "lease",       "id": "j000001", "action": "claim",
     "lease": "L000003", "worker": "w01", "cells": ["9f2c4e81aa00bb42"]}
    {"event": "lease",       "id": "j000001", "action": "reclaim", ...}
    {"event": "quarantined", "id": "j000001", "cell": "9f2c...", "error": "..."}
    {"event": "finished",    "id": "j000001", "accounting": {...}}
    {"event": "failed",      "id": "j000001", "status": 500, "error": "...",
     "traceback": "..."}
    {"event": "snapshot",    "id": "j000001", "record": {...}}

``lease``/``quarantined`` events are the fleet's durability layer
(:mod:`repro.service.fleet`): folding ``claim`` actions reconstructs each
cell's attempt count, so a daemon restart neither forgets that a cell has
already crashed workers nor un-quarantines a poisoned one.

A torn final line (the daemon died mid-append) is ignored on replay; every
complete line before it is intact because appends are single ``write`` calls
followed by ``flush`` + ``fsync``.

**Compaction** (:func:`compact_journal`) folds the whole log into one
``snapshot`` event per job and atomically replaces the file, so the journal
stops growing without bound across restarts.  The daemon compacts on
startup (``JobJournal(path, compact=True)``) — before the append handle
opens, through a temp file + fsync + ``os.replace``, so a crash mid-compact
leaves the original journal untouched and torn-tail tolerance is preserved.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

#: Job lifecycle states, in order.
JOB_STATES = ("queued", "running", "done", "failed")


@dataclass
class JobRecord:
    """One job's current state, as folded from the journal."""

    id: str
    seq: int
    document: Dict[str, Any]
    state: str = "queued"
    description: str = ""
    cells: Dict[str, int] = field(default_factory=dict)
    accounting: Optional[Dict[str, int]] = None
    error: Optional[str] = None
    #: HTTP status class of a failure (400 bad spec vs 500 simulation crash).
    error_status: int = 500
    #: Full traceback of a failure, when one was journaled.
    error_traceback: Optional[str] = None
    #: Fleet attempt counts per cell id (remote claims).
    attempts: Dict[str, int] = field(default_factory=dict)
    #: Quarantined cells: cell id -> last traceback/cause.
    quarantined: Dict[str, str] = field(default_factory=dict)

    def summary(self) -> Dict[str, Any]:
        """The JSON shape ``GET /v1/jobs`` and ``GET /v1/jobs/<id>`` return."""
        payload: Dict[str, Any] = {
            "id": self.id,
            "state": self.state,
            "kind": self.document.get("kind"),
            "description": self.description,
            "cells": self.cells,
        }
        if self.accounting is not None:
            payload["accounting"] = self.accounting
        if self.error is not None:
            payload["error"] = self.error
            payload["error_status"] = self.error_status
        if self.error_traceback is not None:
            payload["traceback"] = self.error_traceback
        if self.attempts:
            payload["attempts"] = dict(self.attempts)
        if self.quarantined:
            payload["quarantined"] = dict(self.quarantined)
        return payload

    def snapshot(self) -> Dict[str, Any]:
        """The full-fidelity dict a ``snapshot`` journal event embeds."""
        return {
            "id": self.id,
            "seq": self.seq,
            "document": self.document,
            "state": self.state,
            "description": self.description,
            "cells": self.cells,
            "accounting": self.accounting,
            "error": self.error,
            "error_status": self.error_status,
            "error_traceback": self.error_traceback,
            "attempts": self.attempts,
            "quarantined": self.quarantined,
        }

    @classmethod
    def from_snapshot(cls, data: Dict[str, Any]) -> "JobRecord":
        """Rebuild a record from a ``snapshot`` event (unknown keys ignored)."""
        return cls(
            id=str(data["id"]),
            seq=int(data.get("seq", 0)),
            document=data.get("document") or {},
            state=data.get("state", "queued"),
            description=data.get("description", ""),
            cells=data.get("cells") or {},
            accounting=data.get("accounting"),
            error=data.get("error"),
            error_status=int(data.get("error_status", 500)),
            error_traceback=data.get("error_traceback"),
            attempts={
                str(k): int(v) for k, v in (data.get("attempts") or {}).items()
            },
            quarantined={
                str(k): str(v) for k, v in (data.get("quarantined") or {}).items()
            },
        )


class JobJournal:
    """Append-only, fsync'd event log backing the service's job queue.

    ``compact=True`` folds the existing log into per-job ``snapshot`` lines
    before opening for append — the daemon's startup path, keeping the
    journal's size proportional to the number of *jobs*, not the number of
    lifecycle events ever emitted.
    """

    def __init__(self, path: Union[str, Path], compact: bool = False) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if compact and self.path.exists():
            compact_journal(self.path)
        self._handle = self.path.open("a", encoding="utf-8")
        # Admission appends from executor threads; the worker loop appends
        # from the event-loop thread.  One lock keeps lines whole.
        self._lock = threading.Lock()

    def append(self, event: Dict[str, Any]) -> None:
        """Durably append one event (returns only after fsync)."""
        line = json.dumps(event, sort_keys=True)
        with self._lock:
            self._handle.write(line + "\n")
            self._handle.flush()
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        with self._lock:
            self._handle.close()

    def __enter__(self) -> "JobJournal":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def replay_journal(path: Union[str, Path]) -> List[JobRecord]:
    """Fold a journal file into job records, in submission order.

    Unknown events and a torn trailing line are skipped; events referencing
    jobs with no ``submitted``/``snapshot`` record are ignored (they cannot
    be resumed without their document).
    """
    path = Path(path)
    records: Dict[str, JobRecord] = {}
    if not path.exists():
        return []
    with path.open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except ValueError:
                continue  # torn tail from a mid-append kill
            if not isinstance(event, dict):
                continue
            name = event.get("event")
            job_id = event.get("id")
            if name == "submitted" and isinstance(job_id, str):
                records[job_id] = JobRecord(
                    id=job_id,
                    seq=int(event.get("seq", 0)),
                    document=event.get("document") or {},
                    description=event.get("description", ""),
                    cells=event.get("cells") or {},
                )
            elif name == "snapshot" and isinstance(job_id, str):
                record_data = event.get("record")
                if isinstance(record_data, dict) and "id" in record_data:
                    records[job_id] = JobRecord.from_snapshot(record_data)
            elif job_id in records:
                record = records[job_id]
                if name == "started":
                    record.state = "running"
                elif name == "finished":
                    record.state = "done"
                    record.accounting = event.get("accounting")
                elif name == "failed":
                    record.state = "failed"
                    record.error = event.get("error", "unknown error")
                    record.error_status = int(event.get("status", 500))
                    record.error_traceback = event.get("traceback")
                elif name == "lease" and event.get("action") == "claim":
                    for cell in event.get("cells") or []:
                        cell = str(cell)
                        record.attempts[cell] = record.attempts.get(cell, 0) + 1
                elif name == "quarantined":
                    cell = str(event.get("cell"))
                    record.quarantined[cell] = str(
                        event.get("error", "unknown cause")
                    )
    return sorted(records.values(), key=lambda record: record.seq)


def compact_journal(path: Union[str, Path]) -> List[JobRecord]:
    """Fold ``path`` into one ``snapshot`` line per job, atomically.

    Replays the existing log (tolerating a torn tail), writes the folded
    records to a temp file in the same directory, fsyncs, and
    ``os.replace``\\ s it over the original — a crash at any point leaves
    either the old or the new journal, never a mix.  Returns the records,
    saving callers a second replay.
    """
    path = Path(path)
    records = replay_journal(path)
    if not path.exists():
        return records
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=".journal-", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            for record in records:
                line = json.dumps(
                    {"event": "snapshot", "id": record.id,
                     "record": record.snapshot()},
                    sort_keys=True,
                )
                handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return records


def next_seq(records: List[JobRecord]) -> int:
    """The first unused submission sequence number."""
    return max((record.seq for record in records), default=0) + 1


__all__ = [
    "JOB_STATES",
    "JobJournal",
    "JobRecord",
    "compact_journal",
    "next_seq",
    "replay_journal",
]
