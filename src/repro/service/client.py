"""Thin blocking HTTP client for the experiment service.

``repro submit`` / ``repro status`` / ``repro cache --url`` are built on
this; it is deliberately small (``http.client``, one request per
connection, JSON in/out) so any other tenant — a notebook, a CI job — can
use it or reimplement it in a dozen lines.

Error taxonomy mirrors the server's: a 400 response raises
:class:`ServiceError` with ``status=400`` (the CLI maps it to exit code 2,
"bad spec"), a 5xx to exit code 3 ("simulation failure"), and 429 carries
``retry_after`` parsed from the Retry-After header (exit code 75,
``EX_TEMPFAIL``).

Retries: every request retries transient failures — connection refused or
reset, 503, and (when ``busy_retries`` is set) 429 honouring Retry-After —
with **seeded deterministic exponential backoff** (:class:`Backoff`), so a
fleet of clients neither thunders in lockstep nor behaves differently run
to run.  Non-idempotent requests (``POST``) are only retried when the
connection was *refused* (the request never reached the daemon); a reset
mid-flight is surfaced instead of risking a duplicate admission.  After the
retry budget is spent the original error propagates unchanged.
"""

from __future__ import annotations

import json
import random
import time
from http.client import HTTPConnection
from typing import Any, Callable, Dict, Optional
from urllib.parse import urlsplit

from repro.errors import BadSpecError

#: Where ``repro serve`` binds unless told otherwise.
DEFAULT_SERVICE_URL = "http://127.0.0.1:8765"

#: Transient-failure retries per request (connection refused/reset, 503).
DEFAULT_RETRIES = 3


class Backoff:
    """Seeded deterministic exponential backoff with bounded jitter.

    ``delay(n) = min(max_delay, base * factor**n) * u`` where ``u`` is drawn
    uniformly from ``[1 - jitter, 1 + jitter]`` by a private
    ``random.Random(seed)`` — two instances with the same seed produce the
    same schedule, so retry behaviour is reproducible in tests and chaos
    runs, while distinct seeds (one per worker) de-synchronise a fleet.
    """

    def __init__(
        self,
        base: float = 0.05,
        factor: float = 2.0,
        max_delay: float = 2.0,
        jitter: float = 0.25,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {jitter}")
        self.base = base
        self.factor = factor
        self.max_delay = max_delay
        self.jitter = jitter
        self._rng = random.Random(seed)
        self._attempt = 0

    def next_delay(self) -> float:
        """The next delay in the schedule (advances the attempt counter)."""
        delay = min(self.max_delay, self.base * (self.factor ** self._attempt))
        self._attempt += 1
        spread = self._rng.uniform(1.0 - self.jitter, 1.0 + self.jitter)
        return delay * spread

    def reset(self) -> None:
        """Back to the first step (after a success)."""
        self._attempt = 0


class ServiceError(Exception):
    """A non-2xx response from the experiment service."""

    def __init__(
        self, status: int, message: str, retry_after: Optional[float] = None
    ) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message
        #: Seconds from the Retry-After header (429 responses only).
        self.retry_after = retry_after


class ServiceClient:
    """Blocking JSON client for one experiment-service base URL.

    ``retries`` bounds transparent retries of transient failures;
    ``busy_retries`` (default 0: surface 429 to the caller, preserving the
    CLI's exit-75 contract) additionally retries admission backpressure,
    sleeping the server's Retry-After.  ``backoff_seed`` makes the whole
    retry schedule deterministic.
    """

    def __init__(
        self,
        base_url: str = DEFAULT_SERVICE_URL,
        timeout: float = 60.0,
        retries: int = DEFAULT_RETRIES,
        busy_retries: int = 0,
        backoff_seed: int = 0,
        sleep: Callable[[float], None] = time.sleep,
    ):
        parts = urlsplit(base_url)
        if parts.scheme not in ("http", ""):
            raise BadSpecError(
                f"service URL must be http://, got {base_url!r}"
            )
        netloc = parts.netloc or parts.path  # tolerate a bare host:port
        if not netloc:
            raise BadSpecError(f"invalid service URL {base_url!r}")
        self.host = netloc.rsplit(":", 1)[0]
        self.port = int(netloc.rsplit(":", 1)[1]) if ":" in netloc else 80
        self.timeout = timeout
        self.retries = retries
        self.busy_retries = busy_retries
        self.backoff_seed = backoff_seed
        self._sleep = sleep

    def request(
        self, method: str, path: str, body: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        """One JSON request/response; raises :class:`ServiceError` on non-2xx.

        Transparently retries transient failures (see the module docstring
        for the exact policy) before letting the original error propagate.
        """
        backoff = Backoff(seed=self.backoff_seed)
        attempts_left = self.retries
        busy_left = self.busy_retries
        while True:
            try:
                return self._request_once(method, path, body)
            except ServiceError as exc:
                if exc.status == 429 and busy_left > 0:
                    busy_left -= 1
                    self._sleep(
                        exc.retry_after
                        if exc.retry_after is not None
                        else backoff.next_delay()
                    )
                    continue
                if exc.status == 503 and attempts_left > 0:
                    attempts_left -= 1
                    self._sleep(backoff.next_delay())
                    continue
                raise
            except ConnectionRefusedError:
                # The request never reached the daemon (restarting?): always
                # safe to retry, POSTs included.
                if attempts_left <= 0:
                    raise
                attempts_left -= 1
                self._sleep(backoff.next_delay())
            except (ConnectionError, TimeoutError, OSError):
                # Reset/EOF mid-flight: the daemon may have acted on the
                # request, so only idempotent methods are retried.
                if method != "GET" or attempts_left <= 0:
                    raise
                attempts_left -= 1
                self._sleep(backoff.next_delay())

    def _request_once(
        self, method: str, path: str, body: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        connection = HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            payload = None if body is None else json.dumps(body).encode()
            headers = {"Content-Type": "application/json"} if payload else {}
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            raw = response.read()
            try:
                data = json.loads(raw) if raw else {}
            except ValueError:
                data = {"error": raw.decode("utf-8", "replace")}
            if response.status >= 300:
                retry_after: Optional[float] = None
                header = response.getheader("Retry-After")
                if header is not None:
                    try:
                        retry_after = float(header)
                    except ValueError:
                        pass
                raise ServiceError(
                    response.status,
                    data.get("error", f"unexpected status {response.status}"),
                    retry_after=retry_after,
                )
            return data
        finally:
            connection.close()

    # ------------------------------------------------------------ endpoints

    def submit(self, document: Dict[str, Any]) -> Dict[str, Any]:
        """``POST /v1/jobs`` — returns ``{"id", "state", "cells"}``."""
        return self.request("POST", "/v1/jobs", document)

    def status(self) -> Dict[str, Any]:
        """``GET /v1/status`` — daemon-level summary."""
        return self.request("GET", "/v1/status")

    def jobs(self) -> Dict[str, Any]:
        """``GET /v1/jobs`` — every known job's summary."""
        return self.request("GET", "/v1/jobs")

    def job(self, job_id: str) -> Dict[str, Any]:
        """``GET /v1/jobs/<id>`` — one job's summary."""
        return self.request("GET", f"/v1/jobs/{job_id}")

    def events(
        self, job_id: str, after: int = 0, timeout: float = 25.0
    ) -> Dict[str, Any]:
        """``GET /v1/jobs/<id>/events`` — long-poll progress events."""
        return self.request(
            "GET", f"/v1/jobs/{job_id}/events?after={after}&timeout={timeout}"
        )

    def result(self, job_id: str) -> Dict[str, Any]:
        """``GET /v1/jobs/<id>/result`` — the finished result document."""
        return self.request("GET", f"/v1/jobs/{job_id}/result")

    def cache_stats(self) -> Dict[str, Any]:
        """``GET /v1/cache/stats``."""
        return self.request("GET", "/v1/cache/stats")

    def cache_prune(self, max_bytes: Optional[int] = None) -> Dict[str, Any]:
        """``POST /v1/cache/prune``."""
        body = {} if max_bytes is None else {"max_bytes": max_bytes}
        return self.request("POST", "/v1/cache/prune", body)

    # --------------------------------------------------------- fleet (worker)

    def worker_register(self, name: Optional[str] = None) -> Dict[str, Any]:
        """``POST /v1/workers`` — join the fleet; returns id + lease params."""
        return self.request("POST", "/v1/workers", {"name": name} if name else {})

    def worker_claim(self, worker_id: str, max_cells: int = 1) -> Dict[str, Any]:
        """``POST /v1/workers/<id>/claim`` — lease up to ``max_cells`` cells."""
        return self.request(
            "POST", f"/v1/workers/{worker_id}/claim", {"max_cells": max_cells}
        )

    def worker_heartbeat(
        self, worker_id: str, leases: Optional[list] = None
    ) -> Dict[str, Any]:
        """``POST /v1/workers/<id>/heartbeat`` — renew liveness and leases."""
        return self.request(
            "POST",
            f"/v1/workers/{worker_id}/heartbeat",
            {"leases": leases or []},
        )

    def worker_complete(
        self, worker_id: str, lease_id: str, outcomes: list
    ) -> Dict[str, Any]:
        """``POST /v1/workers/<id>/complete`` — deliver a lease's results."""
        return self.request(
            "POST",
            f"/v1/workers/{worker_id}/complete",
            {"lease": lease_id, "outcomes": outcomes},
        )

    def worker_drain(self, worker_id: str) -> Dict[str, Any]:
        """``POST /v1/workers/<id>/drain`` — ask a worker to finish and exit."""
        return self.request("POST", f"/v1/workers/{worker_id}/drain")

    def worker_deregister(self, worker_id: str) -> Dict[str, Any]:
        """``DELETE /v1/workers/<id>`` — leave the fleet."""
        return self.request("DELETE", f"/v1/workers/{worker_id}")

    def fleet(self) -> Dict[str, Any]:
        """``GET /v1/workers`` — fleet snapshot (workers, leases, reclaims)."""
        return self.request("GET", "/v1/workers")

    # ----------------------------------------------------------- composites

    def wait(
        self,
        job_id: str,
        poll_timeout: float = 25.0,
        on_event: Optional[Callable[[Dict[str, Any]], None]] = None,
        deadline: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Follow a job's events until it reaches a terminal state.

        Long-polls ``/events`` (so progress streams without busy-waiting),
        invoking ``on_event`` per event, and returns the final job summary.
        ``deadline`` is a monotonic-clock timestamp; ``None`` waits forever.

        Survives a daemon restart mid-poll: a dropped connection or 503 puts
        the loop into backoff-and-repoll (event sequence numbers restart at
        1 after recovery, so ``after`` resets too); a 404 after an outage
        means the job predates the journal — surfaced as the original error.
        """
        after = 0
        backoff = Backoff(seed=self.backoff_seed)
        while True:
            if deadline is not None and time.monotonic() > deadline:
                raise ServiceError(504, f"timed out waiting for job {job_id}")
            try:
                chunk = self.events(job_id, after=after, timeout=poll_timeout)
            except ServiceError as exc:
                if exc.status == 503:
                    self._sleep(backoff.next_delay())
                    continue
                raise
            except (ConnectionError, TimeoutError, OSError):
                # Daemon restarting: its recovered event log starts empty,
                # so our cursor would overshoot — rewind and re-poll.
                after = 0
                self._sleep(backoff.next_delay())
                continue
            backoff.reset()
            for event in chunk.get("events", []):
                if on_event is not None:
                    on_event(event)
            after = chunk.get("next", after)
            if chunk.get("state") in ("done", "failed"):
                return self.job(job_id)


__all__ = [
    "Backoff",
    "DEFAULT_RETRIES",
    "DEFAULT_SERVICE_URL",
    "ServiceClient",
    "ServiceError",
]
