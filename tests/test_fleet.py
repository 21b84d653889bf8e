"""Unit tests of the fleet's moving parts, under a fake clock.

Where :mod:`tests.test_chaos` proves end-to-end robustness against a real
daemon, these tests pin the *mechanisms*: the lease state machine
(claim → renew → expire → reclaim → re-execute, bit-identical), attempt
accounting and quarantine, concurrent-claim exclusivity (hypothesis),
journal compaction, the client's deterministic retry backoff, and the
server's repaired worker-loop failure path.
"""

import json
import socket
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CellQuarantined, EXIT_OK
from repro.service.client import Backoff, ServiceClient, ServiceError
from repro.service.fleet import FleetCoordinator, FleetProtocolError
from repro.service.journal import (
    JobJournal,
    JobRecord,
    compact_journal,
    replay_journal,
)
from repro.service.server import ServiceThread

SWEEP_DOC = {
    "kind": "sweep",
    "spec": {"workloads": ["mcf"], "variants": ["ooo"], "num_uops": 200},
}


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, by: float) -> None:
        self.now += by


def payload(n):
    """A minimal engine-shaped payload (job_cache_key-compatible)."""
    return {
        "benchmark": f"wl{n}", "variant": "ooo",
        "source": {"kind": "workload", "name": f"wl{n}"},
        "trace": None, "config": {"n": n}, "hierarchy": None,
        "max_cycles": None, "probes": [], "window": None, "warmup_uops": 0,
    }


def never_local(payloads, on_result):
    raise AssertionError(f"local executor must not run (payloads {payloads})")


def local_of(execute_cell):
    """A serial local executor (the engine's shape) over one cell function."""

    def local(payloads, on_result):
        for offset, pay in enumerate(payloads):
            on_result(offset, execute_cell(pay))

    return local


class Run:
    """Drive FleetCoordinator.execute on a thread; collect deliveries."""

    def __init__(self, coord, record, payloads, local=never_local):
        self.results = {}
        self.error = None
        self._lock = threading.Lock()

        def on_result(offset, produced):
            with self._lock:
                assert offset not in self.results, "double delivery"
                self.results[offset] = produced

        def target():
            try:
                coord.execute(record, payloads, on_result, local)
            except BaseException as exc:  # noqa: BLE001 — test capture
                self.error = exc

        self.thread = threading.Thread(target=target, daemon=True)
        self.thread.start()

    def join(self, timeout=30.0):
        self.thread.join(timeout)
        assert not self.thread.is_alive(), "execute() did not finish"


def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.002)
    return predicate()


def make_coord(tmp_path=None, **kwargs):
    journal = (
        JobJournal(tmp_path / "journal.jsonl") if tmp_path is not None else None
    )
    kwargs.setdefault("lease_ttl", 10.0)
    kwargs.setdefault("worker_timeout", 1e9)  # liveness tested separately
    kwargs.setdefault("tick", 0.002)
    return FleetCoordinator(journal=journal, **kwargs), journal


# ------------------------------------------------------------ lease lifecycle


def test_claim_renew_expire_reclaim_reexecute_bit_identical(tmp_path):
    clock = FakeClock()
    coord, journal = make_coord(tmp_path, clock=clock)
    record = JobRecord(id="j000001", seq=1, document={})
    payloads = [payload(0), payload(1)]
    # Register before execute() starts: with no workers at all the run would
    # immediately (and correctly) degrade to local execution.
    worker = coord.register("w")["worker"]
    run = Run(coord, record, payloads)

    grant = coord.claim(worker, max_cells=1)
    [cell] = grant["cells"]
    lease1 = grant["lease"]["id"]

    # Renewal holds the lease past its original deadline.
    clock.advance(8.0)
    assert coord.heartbeat(worker, [lease1])["stale"] == []
    clock.advance(5.0)  # t=13 > original deadline 10, renewed one is 18
    assert coord.heartbeat(worker, [lease1])["stale"] == []

    # Silence past the renewed deadline: the sweep reclaims it.
    clock.advance(11.0)  # t=24 > 23
    assert wait_until(lambda: coord.reclaimed_leases == 1)
    assert lease1 in coord.heartbeat(worker, [lease1])["stale"]
    # Stale completion after reclaim is rejected wholesale.
    reply = coord.complete(
        worker, lease1, [{"cell": cell["cell"], "result": {"value": -1}}]
    )
    assert reply == {"accepted": 0, "stale": True}

    # The cell comes back on re-claim, attempt count bumped; this delivery
    # (and only this one) reaches the engine.
    regrant = coord.claim(worker, max_cells=2)
    cells = {c["cell"]: c["payload"] for c in regrant["cells"]}
    assert cell["cell"] in cells
    assert cells[cell["cell"]] == cell["payload"]  # identical payload bits
    outcomes = [
        {"cell": cid, "result": {"value": pay["config"]["n"] * 7}}
        for cid, pay in cells.items()
    ]
    assert coord.complete(worker, regrant["lease"]["id"], outcomes) == {
        "accepted": len(outcomes), "stale": False,
    }
    run.join()
    assert run.error is None
    assert run.results == {0: {"value": 0}, 1: {"value": 7}}
    assert record.attempts[cell["cell"]] == 2
    assert coord.stale_completions == 1

    # Durability: replaying the journal reconstructs the same attempts.
    journal.close()
    events = [
        json.loads(line)
        for line in (tmp_path / "journal.jsonl").read_text().splitlines()
    ]
    claims = [e for e in events if e["event"] == "lease" and e["action"] == "claim"]
    reclaims = [
        e for e in events if e["event"] == "lease" and e["action"] == "reclaim"
    ]
    assert len(reclaims) == 1 and reclaims[0]["worker"] == worker
    replayed = {}
    for event in claims:
        for cid in event["cells"]:
            replayed[cid] = replayed.get(cid, 0) + 1
    assert replayed == record.attempts


def test_repeated_failures_quarantine_cell_and_fail_run(tmp_path):
    clock = FakeClock()
    coord, journal = make_coord(tmp_path, clock=clock, max_attempts=2)
    record = JobRecord(id="j000001", seq=1, document={})
    worker = coord.register("w")["worker"]
    run = Run(coord, record, [payload(0)])

    grant = coord.claim(worker)
    cid = grant["cells"][0]["cell"]
    # First failure: requeued (attempts 1 < 2).
    coord.complete(
        worker, grant["lease"]["id"], [{"cell": cid, "error": "boom one"}]
    )
    regrant = coord.claim(worker)
    assert regrant["cells"][0]["cell"] == cid
    # Second failure: attempts == max_attempts -> quarantined, run poisoned.
    coord.complete(
        worker, regrant["lease"]["id"], [{"cell": cid, "error": "boom two"}]
    )
    run.join()
    assert isinstance(run.error, CellQuarantined)
    assert cid in str(run.error) and "boom two" in str(run.error)
    assert record.quarantined == {cid: "boom two"}
    assert record.attempts == {cid: 2}
    # A fresh run seeded from this record stays poisoned (daemon restart).
    rerun = Run(coord, record, [payload(0)])
    rerun.join()
    assert isinstance(rerun.error, CellQuarantined)
    journal.close()


def test_deregister_reclaims_immediately_and_unknown_worker_is_404():
    coord, _ = make_coord()
    record = JobRecord(id="j000001", seq=1, document={})
    worker = coord.register("w")["worker"]
    run = Run(
        coord, record, [payload(0)],
        local=local_of(lambda pay: {"value": pay["config"]["n"]}),
    )
    grant = coord.claim(worker)
    assert grant["cells"]
    coord.deregister(worker)
    assert coord.reclaimed_leases == 1
    # No workers left: the run degrades to local execution and finishes.
    run.join()
    assert run.error is None and run.results == {0: {"value": 0}}
    assert record.attempts[grant["cells"][0]["cell"]] == 1  # remote only
    with pytest.raises(FleetProtocolError) as excinfo:
        coord.claim(worker)
    assert excinfo.value.status == 404


def test_draining_worker_gets_no_cells():
    coord, _ = make_coord()
    record = JobRecord(id="j000001", seq=1, document={})
    run = Run(
        coord, record, [payload(0)],
        local=local_of(lambda pay: {"value": 1}),
    )
    worker = coord.register("w")["worker"]
    coord.drain(worker)
    assert coord.heartbeat(worker)["drain"] is True
    grant = coord.claim(worker)
    assert grant == {"worker": worker, "drain": True, "cells": []}
    coord.deregister(worker)
    run.join()  # local fallback finishes the run
    assert run.results == {0: {"value": 1}}


def test_no_live_worker_hands_every_pending_cell_to_one_local_call(tmp_path):
    coord, journal = make_coord(tmp_path)
    record = JobRecord(id="j000001", seq=1, document={})
    payloads = [payload(n) for n in range(4)]
    # Lease cell 0 to a worker, then lose the worker: the reclaimed cell goes
    # back to the *end* of the pending queue, behind cells 1-3.
    worker = coord.register("w")["worker"]
    calls = []

    def local(batch, on_result):
        calls.append(list(batch))
        for offset, pay in enumerate(batch):
            on_result(offset, {"value": pay["config"]["n"]})

    run = Run(coord, record, payloads, local=local)
    grant = coord.claim(worker)
    assert [c["payload"] for c in grant["cells"]] == [payloads[0]]
    coord.deregister(worker)
    run.join()
    assert run.error is None
    assert run.results == {n: {"value": n} for n in range(4)}
    assert calls == [payloads]  # one call, every pending cell, offset order
    # Local execution is not a lease: only the remote claim counted.
    assert record.attempts == {grant["cells"][0]["cell"]: 1}
    journal.close()
    lines = (tmp_path / "journal.jsonl").read_text().splitlines()
    claims = [
        event
        for event in map(json.loads, lines)
        if event["event"] == "lease" and event["action"] == "claim"
    ]
    assert [event["worker"] for event in claims] == [worker]


def test_local_executor_failure_propagates_once_without_attempts():
    coord, _ = make_coord()
    record = JobRecord(id="j000001", seq=1, document={})
    calls = []

    def failing(batch, on_result):
        calls.append(len(batch))
        on_result(0, {"value": 0})
        raise RuntimeError("local meltdown")

    run = Run(coord, record, [payload(0), payload(1)], local=failing)
    run.join()
    assert isinstance(run.error, RuntimeError) and "meltdown" in str(run.error)
    assert calls == [2]  # no retry of the failed batch
    assert run.results == {0: {"value": 0}}  # delivered before the failure
    assert record.attempts == {} and record.quarantined == {}


# ----------------------------------------------------- concurrent exclusivity


@settings(max_examples=15, deadline=None)
@given(
    n_cells=st.integers(min_value=1, max_value=12),
    n_workers=st.integers(min_value=2, max_value=5),
    max_cells=st.integers(min_value=1, max_value=4),
)
def test_concurrent_claimers_never_double_assign(n_cells, n_workers, max_cells):
    """However many workers race claim(), every cell lands in exactly one
    lease, and every payload is delivered exactly once."""
    coord, _ = make_coord()
    record = JobRecord(id="j000001", seq=1, document={})
    # An anchor worker keeps live_workers >= 1 so no cell goes local while
    # the claimer threads are still registering.
    coord.register("anchor")
    run = Run(coord, record, [payload(n) for n in range(n_cells)])
    grants = []
    grants_lock = threading.Lock()
    claimed = {"count": 0}

    def claimer(seed):
        worker = coord.register(f"w{seed}")["worker"]
        while True:
            with grants_lock:
                if claimed["count"] >= n_cells:
                    return
            grant = coord.claim(worker, max_cells=max_cells)
            cells = grant["cells"]
            if cells:
                with grants_lock:
                    grants.append((worker, grant["lease"]["id"], cells))
                    claimed["count"] += len(cells)

    threads = [
        threading.Thread(target=claimer, args=(i,), daemon=True)
        for i in range(n_workers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30.0)
        assert not thread.is_alive()

    all_cells = [c["cell"] for _, _, cells in grants for c in cells]
    assert len(all_cells) == n_cells
    assert len(set(all_cells)) == n_cells, "a cell was double-assigned"

    for worker, lease_id, cells in grants:
        reply = coord.complete(
            worker, lease_id,
            [{"cell": c["cell"], "result": {"n": c["payload"]["config"]["n"]}}
             for c in cells],
        )
        assert reply["stale"] is False
    run.join()
    assert run.error is None
    assert run.results == {n: {"n": n} for n in range(n_cells)}


# --------------------------------------------------------- journal compaction


def _seed_journal(path):
    with JobJournal(path) as journal:
        journal.append(
            {"event": "submitted", "id": "j000001", "seq": 1,
             "document": {"kind": "sweep"}, "description": "one",
             "cells": {"total": 2, "cached": 0}}
        )
        journal.append({"event": "started", "id": "j000001"})
        journal.append(
            {"event": "lease", "action": "claim", "id": "j000001",
             "lease": "L000001", "worker": "w0001", "cells": ["aa", "bb"]}
        )
        journal.append(
            {"event": "lease", "action": "claim", "id": "j000001",
             "lease": "L000002", "worker": "w0002", "cells": ["aa"]}
        )
        journal.append(
            {"event": "quarantined", "id": "j000001", "cell": "aa",
             "attempts": 2, "error": "tb"}
        )
        journal.append(
            {"event": "failed", "id": "j000001", "status": 500,
             "error": "cell aa quarantined", "traceback": "tb"}
        )
        journal.append(
            {"event": "submitted", "id": "j000002", "seq": 2,
             "document": {"kind": "sweep"}, "description": "two",
             "cells": {"total": 1, "cached": 1}}
        )


def _snapshot_view(records):
    return [record.snapshot() for record in records]


def test_compaction_folds_to_snapshots_preserving_replay(tmp_path):
    path = tmp_path / "journal.jsonl"
    _seed_journal(path)
    before = _snapshot_view(replay_journal(path))
    compact_journal(path)
    lines = path.read_text().splitlines()
    assert len(lines) == 2  # one snapshot per job, seven events folded
    assert all(json.loads(line)["event"] == "snapshot" for line in lines)
    assert _snapshot_view(replay_journal(path)) == before
    # Attempt counts and quarantine survive the fold.
    record = replay_journal(path)[0]
    assert record.attempts == {"aa": 2, "bb": 1}
    assert record.quarantined == {"aa": "tb"}
    assert record.error_traceback == "tb"
    assert record.state == "failed"


def test_compaction_tolerates_torn_tail_and_reopens_for_append(tmp_path):
    path = tmp_path / "journal.jsonl"
    _seed_journal(path)
    with path.open("a", encoding="utf-8") as handle:
        handle.write('{"event": "submitted", "id": "j0000')  # daemon died here
    before = _snapshot_view(replay_journal(path))
    # The startup path: compact, then append through the fresh handle.
    with JobJournal(path, compact=True) as journal:
        assert _snapshot_view(replay_journal(path)) == before
        journal.append({"event": "started", "id": "j000002"})
    records = replay_journal(path)
    assert [r.state for r in records] == ["failed", "running"]


def test_compacting_a_missing_journal_is_a_noop(tmp_path):
    assert compact_journal(tmp_path / "absent.jsonl") == []


# ------------------------------------------------------------- client backoff


def test_backoff_is_deterministic_bounded_and_jittered():
    a = Backoff(base=0.05, factor=2.0, max_delay=1.0, jitter=0.25, seed=7)
    b = Backoff(base=0.05, factor=2.0, max_delay=1.0, jitter=0.25, seed=7)
    schedule_a = [a.next_delay() for _ in range(8)]
    schedule_b = [b.next_delay() for _ in range(8)]
    assert schedule_a == schedule_b  # same seed, same schedule
    for step, delay in enumerate(schedule_a):
        ceiling = min(1.0, 0.05 * 2.0 ** step)
        assert ceiling * 0.75 <= delay <= ceiling * 1.25
    c = Backoff(base=0.05, factor=2.0, max_delay=1.0, jitter=0.25, seed=8)
    assert [c.next_delay() for _ in range(8)] != schedule_a  # seeds decorrelate
    a.reset()
    assert a.next_delay() <= 0.05 * 1.25


def test_request_retries_connection_refused_with_seeded_backoff():
    with socket.socket() as probe:  # a port with no listener
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    slept = []
    client = ServiceClient(
        f"http://127.0.0.1:{port}", timeout=2.0, retries=2, sleep=slept.append
    )
    with pytest.raises(OSError):
        client.request("GET", "/v1/status")
    reference = Backoff(seed=0)
    assert slept == [reference.next_delay(), reference.next_delay()]


def test_request_retries_429_only_when_opted_in(monkeypatch):
    calls = {"n": 0}

    def flaky(method, path, body=None):
        calls["n"] += 1
        if calls["n"] <= 2:
            raise ServiceError(429, "busy", retry_after=0.01)
        return {"ok": True}

    slept = []
    client = ServiceClient(
        "http://127.0.0.1:1", busy_retries=2, sleep=slept.append
    )
    monkeypatch.setattr(client, "_request_once", flaky)
    assert client.request("POST", "/v1/jobs", {}) == {"ok": True}
    assert slept == [0.01, 0.01]  # Retry-After honoured verbatim

    calls["n"] = 0
    strict = ServiceClient("http://127.0.0.1:1", sleep=slept.append)
    monkeypatch.setattr(strict, "_request_once", flaky)
    with pytest.raises(ServiceError) as excinfo:
        strict.request("POST", "/v1/jobs", {})
    assert excinfo.value.status == 429  # default: surface to the CLI (exit 75)


def test_post_is_not_retried_on_mid_flight_reset(monkeypatch):
    calls = {"n": 0}

    def resetting(method, path, body=None):
        calls["n"] += 1
        raise ConnectionResetError("mid-flight")

    client = ServiceClient("http://127.0.0.1:1", retries=3, sleep=lambda s: None)
    monkeypatch.setattr(client, "_request_once", resetting)
    with pytest.raises(ConnectionResetError):
        client.request("POST", "/v1/jobs", {})
    assert calls["n"] == 1  # a duplicate admission is worse than an error


# ------------------------------------------------- daemon restart + wait loop


def _free_port():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def test_wait_survives_daemon_restart_mid_long_poll(tmp_path):
    port = _free_port()
    state = tmp_path / "state"
    first = ServiceThread(state_dir=state, port=port, start_paused=True)
    waiter = {}
    client = ServiceClient(first.base_url, timeout=10.0)
    job_id = client.submit(SWEEP_DOC)["id"]

    def wait_it():
        try:
            waiter["final"] = client.wait(
                job_id, poll_timeout=1.0,
                deadline=time.monotonic() + 120.0,
            )
        except BaseException as exc:  # noqa: BLE001 — test capture
            waiter["error"] = exc

    thread = threading.Thread(target=wait_it, daemon=True)
    thread.start()
    time.sleep(0.3)  # let the waiter enter its long poll
    assert first.stop() == EXIT_OK  # job still queued, nothing interrupted
    # The daemon is gone: the waiter must ride out the outage.
    time.sleep(0.3)
    second = ServiceThread(state_dir=state, port=port)
    try:
        thread.join(timeout=120.0)
        assert not thread.is_alive(), "wait() never recovered"
        assert "error" not in waiter, waiter.get("error")
        assert waiter["final"]["state"] == "done"
        assert waiter["final"]["id"] == job_id
    finally:
        second.stop()


def test_worker_loop_failure_is_journaled_not_swallowed(tmp_path):
    """An exception escaping the job execution future must fail the job
    with a journaled traceback — never strand it in 'running'."""
    handle = ServiceThread(state_dir=tmp_path / "state")
    try:
        def boom(job):
            raise RuntimeError("kaboom past the outcome protocol")

        handle.service._execute_job = boom
        client = ServiceClient(handle.base_url)
        job_id = client.submit(SWEEP_DOC)["id"]
        final = client.wait(job_id, deadline=time.monotonic() + 60.0)
        assert final["state"] == "failed"
        assert "kaboom" in final["error"]
        assert "RuntimeError" in final.get("traceback", "")
        record = next(
            r for r in replay_journal(tmp_path / "state" / "journal.jsonl")
            if r.id == job_id
        )
        assert record.state == "failed"
        assert "kaboom" in (record.error_traceback or "")
    finally:
        handle.stop()
