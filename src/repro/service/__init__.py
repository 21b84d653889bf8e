"""The always-on experiment service: ``repro serve`` and its clients.

This package exposes the experiment engine as a multi-tenant asyncio
HTTP/JSON API (stdlib only — ``asyncio`` streams plus a minimal HTTP/1.1
layer):

* :mod:`repro.service.documents` — the job-document model: the JSON shapes
  a client may ``POST /v1/jobs`` (sweep / study / sharded-replay), parsed
  strictly and expanded into engine payloads for admission-time cache
  dedupe;
* :mod:`repro.service.journal` — the durable on-disk job queue: an
  fsync'd append-only journal that survives a killed daemon and replays
  into the exact set of jobs to resume on restart (with startup
  compaction folding finished jobs into snapshot records);
* :mod:`repro.service.server` — :class:`~repro.service.server.ExperimentService`,
  the asyncio daemon: bounded admission (429 + Retry-After), a worker loop
  feeding the shared :class:`~repro.simulation.engine.ExperimentEngine`,
  long-poll progress events, and cache administration endpoints;
* :mod:`repro.service.fleet` — the
  :class:`~repro.service.fleet.FleetCoordinator`: lease-based distribution
  of cell batches to remote workers, with heartbeats, expiry reclaim,
  attempt-bounded quarantine, and graceful degradation to the engine's own
  ``--workers`` pool when the fleet is empty or partitioned;
* :mod:`repro.service.worker` — :class:`~repro.service.worker.FleetWorker`,
  the ``repro work`` process: claim a lease, execute its cells, heartbeat,
  complete, repeat until drained;
* :mod:`repro.service.client` — :class:`~repro.service.client.ServiceClient`,
  the thin blocking HTTP client behind ``repro submit`` / ``repro status`` /
  ``repro cache`` — the CLI is just one more tenant — with seeded
  deterministic retry backoff (:class:`~repro.service.client.Backoff`).
"""

from repro.service.client import Backoff, ServiceClient, ServiceError
from repro.service.documents import parse_document
from repro.service.fleet import FleetCoordinator, FleetProtocolError
from repro.service.journal import JobJournal, JobRecord, compact_journal
from repro.service.server import ExperimentService, ServiceThread
from repro.service.worker import FleetWorker

__all__ = [
    "Backoff",
    "ExperimentService",
    "FleetCoordinator",
    "FleetProtocolError",
    "FleetWorker",
    "JobJournal",
    "JobRecord",
    "ServiceClient",
    "ServiceError",
    "ServiceThread",
    "compact_journal",
    "parse_document",
]
