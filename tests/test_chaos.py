"""Chaos tests: every fleet robustness claim, proven against injected faults.

Each test runs a *real* daemon (``ServiceThread``) and real workers
(``FleetWorker`` threads talking HTTP), injects one failure mode through
the deterministic harness in :mod:`tests.chaos`, and asserts the two
invariants the fleet design promises:

1. **bit-identical results** — the distributed run's per-cell stats digests
   equal a serial in-process run's, whatever was killed or dropped;
2. **exactly-once cache effects** — the daemon writes each simulated cell
   into the result cache exactly once, no matter how many workers executed
   it along the way.
"""

import time

import pytest

from chaos import ChaosWorker, FaultPlan, sweep_digests, wait_until
from repro.service import ServiceClient
from repro.service.journal import replay_journal
from repro.service.server import ServiceThread
from repro.simulation.engine import ExperimentEngine, SweepSpec

SWEEP_DOC = {
    "kind": "sweep",
    "spec": {
        "workloads": ["mcf", "libquantum"],
        "variants": ["ooo", "runahead"],
        "num_uops": 200,
    },
}
N_CELLS = 4

#: Short leases so expiry-path tests run in tenths of seconds.
LEASE_TTL = 0.3


@pytest.fixture(scope="module")
def serial_digests(tmp_path_factory):
    """Ground truth: the same sweep run serially, in-process, no fleet."""
    engine = ExperimentEngine(
        workers=1, cache_dir=tmp_path_factory.mktemp("serial-cache")
    )
    spec = SweepSpec.from_dict(SWEEP_DOC["spec"])
    return sweep_digests(engine.run_sweep(spec).to_dict())


def _start_service(tmp_path, **kwargs):
    kwargs.setdefault("lease_ttl", LEASE_TTL)
    return ServiceThread(state_dir=tmp_path / "state", max_queue=8, **kwargs)


def _count_cache_puts(handle):
    """Wrap the daemon's cache.put with a counter (same-process privilege)."""
    cache = handle.service.engine.cache
    counts = {"puts": 0}
    original = cache.put

    def counting_put(key, payload):
        counts["puts"] += 1
        return original(key, payload)

    cache.put = counting_put
    return counts


def _run_job_to_done(handle, deadline_s=120.0):
    client = ServiceClient(handle.base_url)
    job_id = client.submit(SWEEP_DOC)["id"]
    final = client.wait(job_id, deadline=time.monotonic() + deadline_s)
    assert final["state"] == "done", final
    return client, final


def test_sigkill_after_claim_reclaims_lease_and_matches_serial(
    tmp_path, serial_digests
):
    """A worker SIGKILL'd right after claiming: lease expires, cells requeue,
    a late-arriving healthy worker finishes, results are bit-identical."""
    handle = _start_service(tmp_path)
    victim = replacement = None
    try:
        victim = ChaosWorker(
            handle.base_url, "victim", kill_after_claim=1, backoff_seed=1
        ).start()
        client = ServiceClient(handle.base_url)
        job_id = client.submit(SWEEP_DOC)["id"]
        # The victim claims once and dies; its unrenewed lease must be
        # reclaimed within the TTL.
        assert wait_until(
            lambda: handle.service.fleet.reclaimed_leases >= 1, timeout=30.0
        ), "lease of the killed worker was never reclaimed"
        assert wait_until(lambda: victim.killed, timeout=30.0)
        replacement = ChaosWorker(
            handle.base_url, "replacement", backoff_seed=2
        ).start()
        final = client.wait(job_id, deadline=time.monotonic() + 120.0)
        assert final["state"] == "done", final
        result = client.result(job_id)["result"]
        assert sweep_digests(result) == serial_digests
        # The journal recorded the lifecycle durably: the reclaimed cell's
        # attempt count reconstructs to >= 2 on replay.
        records = replay_journal(tmp_path / "state" / "journal.jsonl")
        record = next(r for r in records if r.id == job_id)
        assert max(record.attempts.values()) >= 2
        assert not record.quarantined
    finally:
        if replacement is not None:
            replacement.stop()
        handle.stop()


def test_sigkill_before_complete_never_double_writes_cache(
    tmp_path, serial_digests
):
    """A worker that computed a batch but died before delivering it: the
    cells re-execute elsewhere, and each cell is cached exactly once."""
    handle = _start_service(tmp_path)
    puts = _count_cache_puts(handle)
    victim = survivor = None
    try:
        victim = ChaosWorker(
            handle.base_url, "victim", kill_before_complete=1, backoff_seed=3
        ).start()
        survivor = ChaosWorker(handle.base_url, "survivor", backoff_seed=4).start()
        client, final = _run_job_to_done(handle)
        assert sweep_digests(client.result(final["id"])["result"]) == serial_digests
        assert wait_until(lambda: victim.killed, timeout=30.0)
        # Exactly one cache write per cell: the daemon is the only writer
        # and it writes on first delivery only.
        assert puts["puts"] == N_CELLS
        assert final["accounting"] == {
            "total": N_CELLS, "cached": 0, "simulated": N_CELLS,
        }
    finally:
        if survivor is not None:
            survivor.stop()
        handle.stop()


def test_forced_early_expiry_rejects_stale_completion(tmp_path, serial_digests):
    """A lease force-expired while its healthy worker is mid-batch: the
    worker's completion is rejected as stale (no double delivery) and the
    re-claimed cell still produces identical bits."""
    plan = FaultPlan(expire_leases={"L000001"})
    handle = _start_service(tmp_path, fault_plan=plan)
    puts = _count_cache_puts(handle)
    worker = None
    try:
        worker = ChaosWorker(handle.base_url, "steady", backoff_seed=5).start()
        client, final = _run_job_to_done(handle)
        assert sweep_digests(client.result(final["id"])["result"]) == serial_digests
        assert handle.service.fleet.stale_completions >= 1
        assert ("expire", "L000001", "w0001") in plan.log
        assert puts["puts"] == N_CELLS
    finally:
        if worker is not None:
            worker.stop()
        handle.stop()


def test_dropped_and_delayed_responses_are_absorbed(tmp_path, serial_digests):
    """Network flakiness on the worker API: one claim's connection dies
    before the daemon acts, one completion is processed but its response
    dropped, heartbeats are delayed — the job still finishes identically."""
    plan = FaultPlan(
        requests=[
            {"method": "POST", "path_contains": "/claim", "times": 1,
             "action": ("drop",)},
            {"method": "POST", "path_contains": "/complete", "times": 1,
             "action": ("drop-after",)},
            {"method": "POST", "path_contains": "/heartbeat", "times": 3,
             "action": ("delay", 0.02)},
        ]
    )
    handle = _start_service(tmp_path, fault_plan=plan)
    puts = _count_cache_puts(handle)
    worker = None
    try:
        worker = ChaosWorker(handle.base_url, "flaky-net", backoff_seed=6).start()
        client, final = _run_job_to_done(handle)
        assert sweep_digests(client.result(final["id"])["result"]) == serial_digests
        # The drop-after completion was acted on: its results were delivered
        # once, even though the worker never heard the acknowledgement.
        assert puts["puts"] == N_CELLS
        assert any(entry[2] == "drop-after" for entry in plan.log)
    finally:
        if worker is not None:
            worker.stop()
        handle.stop()


@pytest.mark.parametrize("workers", [1, 2])
def test_fully_partitioned_fleet_degrades_to_local_execution(
    tmp_path, serial_digests, workers
):
    """Workers registered but silent (partition): after the liveness window
    the daemon hands the cells to its own executor (serial, or the process
    pool with ``workers=2``) instead of hanging the job, bit-identically."""
    handle = _start_service(tmp_path, lease_ttl=0.2, workers=workers)
    try:
        client = ServiceClient(handle.base_url)
        # A ghost: registers, then never claims or heartbeats again.
        ghost = client.worker_register("ghost")["worker"]
        client2, final = _run_job_to_done(handle)
        assert sweep_digests(client2.result(final["id"])["result"]) == serial_digests
        snapshot = handle.service.fleet.snapshot()
        ghost_info = next(w for w in snapshot["workers"] if w["id"] == ghost)
        assert ghost_info["cells_completed"] == 0
        assert snapshot["active_leases"] == 0
    finally:
        handle.stop()


def test_four_worker_sweep_is_bit_identical_and_drains_cleanly(
    tmp_path, serial_digests
):
    """The happy-path fleet: 4 workers split a sweep; digests match the
    serial run; a drained worker exits 0 without abandoning anything."""
    handle = _start_service(tmp_path)
    workers = []
    try:
        workers = [
            ChaosWorker(handle.base_url, f"w{i}", backoff_seed=10 + i).start()
            for i in range(4)
        ]
        client, final = _run_job_to_done(handle)
        assert sweep_digests(client.result(final["id"])["result"]) == serial_digests
        assert final["accounting"]["simulated"] == N_CELLS
        # Drain one worker: it must exit 0 on its own.
        drained = workers[0]
        client.worker_drain(drained.worker.worker_id)
        assert wait_until(lambda: not drained.alive, timeout=30.0)
        assert drained.exit_code == 0
    finally:
        for worker in workers:
            worker.stop()
        handle.stop()


def test_poisoned_cell_quarantines_instead_of_wedging(tmp_path):
    """A cell whose execution always crashes the worker side: after
    max_attempts it is parked with its traceback and the job fails promptly
    (no infinite retry), with the quarantine journaled durably."""

    def crashing_execute(payload):
        raise RuntimeError("synthetic cell crash")

    handle = _start_service(tmp_path, max_attempts=2)
    worker = None
    try:
        worker = ChaosWorker(
            handle.base_url, "crasher", backoff_seed=7, execute=crashing_execute
        ).start()
        client = ServiceClient(handle.base_url)
        job_id = client.submit(SWEEP_DOC)["id"]
        final = client.wait(job_id, deadline=time.monotonic() + 120.0)
        assert final["state"] == "failed"
        assert "quarantined" in (final.get("error") or "")
        summary = client.job(job_id)
        assert summary.get("quarantined"), summary
        cell_id, cause = next(iter(summary["quarantined"].items()))
        assert "synthetic cell crash" in cause
        assert summary["attempts"][cell_id] == 2
        # Durable: a replay reconstructs the quarantine and attempt counts.
        records = replay_journal(tmp_path / "state" / "journal.jsonl")
        record = next(r for r in records if r.id == job_id)
        assert cell_id in record.quarantined
        assert record.attempts[cell_id] == 2
    finally:
        if worker is not None:
            worker.stop()
        handle.stop()
