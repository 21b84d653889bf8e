"""End-to-end tests of the experiment service: the durable HTTP job queue.

Everything runs against a *real* listening server (``ServiceThread`` spins
the asyncio daemon on a background loop, ``ServiceClient`` talks actual
HTTP over a socket), so these tests cover the full contract:

* admission: strict document validation (unknown fields/kinds/registry
  names → 400), cache-dedupe accounting in the 202 response, and the
  bounded queue's 429 + Retry-After backpressure;
* execution: per-cell progress events via long-poll, per-job
  cached/simulated accounting, result retrieval round-tripping through the
  native result types;
* durability: the fsync'd journal folds back into the exact set of
  incomplete jobs, which a restarted daemon resumes and finishes;
* failure taxonomy: bad-spec failures surface as 400-class, simulation
  crashes as 500-class — mirrored by the CLI's exit codes 2 and 3.
"""

import json
import threading
import time

import pytest

from repro.__main__ import main
from repro.errors import (
    EXIT_BAD_SPEC,
    EXIT_BUSY,
    EXIT_INTERRUPTED,
    EXIT_SIM_FAILURE,
    BadSpecError,
)
from repro.registry import build_workload_source
from repro.service import ServiceClient, ServiceError, parse_document
from repro.service.journal import JobJournal, next_seq, replay_journal
from repro.service.server import ServiceThread
from repro.simulation.engine import ExperimentEngine, SweepResult
from repro.workloads.source import write_trace_file

SWEEP_DOC = {
    "kind": "sweep",
    "spec": {"workloads": ["mcf"], "variants": ["ooo"], "num_uops": 200},
}


def wait_for(client, job_id, deadline_s=120.0):
    events = []
    final = client.wait(
        job_id,
        poll_timeout=5.0,
        on_event=events.append,
        deadline=time.monotonic() + deadline_s,
    )
    return final, events


@pytest.fixture()
def service(tmp_path):
    handle = ServiceThread(state_dir=tmp_path / "state", max_queue=8)
    yield handle
    handle.stop()


# ------------------------------------------------------------------ documents


def test_parse_document_rejects_non_object():
    with pytest.raises(BadSpecError, match="JSON object"):
        parse_document([1, 2, 3])


def test_parse_document_rejects_unknown_kind():
    with pytest.raises(BadSpecError, match="unknown document kind"):
        parse_document({"kind": "banana", "spec": {}})


def test_parse_document_rejects_unknown_spec_field():
    with pytest.raises(BadSpecError, match="unknown field"):
        parse_document({"kind": "sweep", "spec": {"bogus": 1}})


def test_parse_document_rejects_unknown_registry_names():
    with pytest.raises(BadSpecError, match="unknown workload"):
        parse_document(
            {"kind": "sweep", "spec": {"workloads": ["nope"], "variants": ["ooo"]}}
        )


def test_parse_document_rejects_stray_top_level_keys():
    doc = dict(SWEEP_DOC)
    doc["extra"] = True
    with pytest.raises(BadSpecError, match="unexpected top-level"):
        parse_document(doc)


def test_parse_document_normalises_round_trippable():
    parsed = parse_document(SWEEP_DOC)
    again = parse_document(parsed.document)
    assert again.document == parsed.document
    assert again.kind == "sweep"


def test_parse_replay_requires_existing_trace(tmp_path):
    with pytest.raises(BadSpecError):
        parse_document(
            {"kind": "replay", "spec": {"trace_file": str(tmp_path / "missing.trc")}}
        )


# -------------------------------------------------------------------- journal


def test_journal_replay_folds_lifecycle(tmp_path):
    path = tmp_path / "journal.jsonl"
    with JobJournal(path) as journal:
        journal.append(
            {"event": "submitted", "id": "j000001", "seq": 1, "document": {"k": 1}}
        )
        journal.append({"event": "started", "id": "j000001"})
        journal.append(
            {"event": "submitted", "id": "j000002", "seq": 2, "document": {"k": 2}}
        )
        journal.append(
            {"event": "finished", "id": "j000001", "accounting": {"total": 3}}
        )
    records = replay_journal(path)
    assert [r.id for r in records] == ["j000001", "j000002"]
    assert records[0].state == "done"
    assert records[0].accounting == {"total": 3}
    assert records[1].state == "queued"
    assert next_seq(records) == 3


def test_journal_replay_tolerates_torn_tail(tmp_path):
    path = tmp_path / "journal.jsonl"
    with JobJournal(path) as journal:
        journal.append(
            {"event": "submitted", "id": "j000001", "seq": 1, "document": {}}
        )
    with path.open("a", encoding="utf-8") as handle:
        handle.write('{"event": "finished", "id": "j0000')  # killed mid-append
    records = replay_journal(path)
    assert len(records) == 1
    assert records[0].state == "queued"


# ------------------------------------------------------- submit/dedupe/result


def test_submit_runs_and_resubmit_is_fully_cached(service):
    client = ServiceClient(service.base_url)
    first = client.submit(SWEEP_DOC)
    assert first["cells"] == {"total": 1, "cached": 0}
    final, events = wait_for(client, first["id"])
    assert final["state"] == "done"
    assert final["accounting"] == {"total": 1, "cached": 0, "simulated": 1}
    kinds = [event["type"] for event in events]
    assert kinds[0] == "started" and kinds[-1] == "done"
    assert {"type": "cell", "done": 1, "total": 1, "source": "simulated",
            "seq": kinds.index("cell") + 1} in events

    second = client.submit(SWEEP_DOC)
    assert second["cells"] == {"total": 1, "cached": 1}  # admission-time dedupe
    final2, _ = wait_for(client, second["id"])
    assert final2["accounting"] == {"total": 1, "cached": 1, "simulated": 0}

    result = client.result(second["id"])
    sweep = SweepResult.from_dict(result["result"])
    benchmarks = [
        entry.benchmark
        for cell in sweep.cells
        for entry in cell.comparison.benchmarks
    ]
    assert benchmarks == ["mcf"]


def test_bad_document_is_http_400(service):
    client = ServiceClient(service.base_url)
    with pytest.raises(ServiceError) as excinfo:
        client.submit({"kind": "sweep", "spec": {"workloads": ["nope"]}})
    assert excinfo.value.status == 400
    # A rejected document takes no queue slot and creates no job.
    assert client.jobs()["jobs"] == []


UNEXPANDABLE_DOCS = {
    "unknown-config-field": {
        "kind": "sweep",
        "spec": {"workloads": ["mcf"], "configs": [{"rob_sz": 3}]},
    },
    "negative-config-value": {
        "kind": "sweep",
        "spec": {"workloads": ["mcf"], "configs": [{"rob_size": -3}]},
    },
    "empty-co-runner": {
        "kind": "sweep",
        "spec": {
            "workloads": ["mcf"],
            "multicore": {"cores": [{"workload": "mcf", "num_uops": 0}]},
        },
    },
    "empty-sweep": {"kind": "sweep", "spec": {"workloads": ["mcf"], "num_uops": 0}},
    "empty-study": {"kind": "study", "study": "rob-scaling", "num_uops": 0},
}


@pytest.mark.parametrize("name", sorted(UNEXPANDABLE_DOCS))
def test_unexpandable_document_is_http_400(service, name):
    # These parse, but their cells cannot expand: still a bad document, so a
    # 400 at admission (not a 500, and not an admitted job of empty traces).
    client = ServiceClient(service.base_url)
    with pytest.raises(ServiceError) as excinfo:
        client.submit(UNEXPANDABLE_DOCS[name])
    assert excinfo.value.status == 400
    assert client.jobs()["jobs"] == []


def test_unknown_job_and_route_are_404(service):
    client = ServiceClient(service.base_url)
    with pytest.raises(ServiceError) as excinfo:
        client.job("j999999")
    assert excinfo.value.status == 404
    with pytest.raises(ServiceError) as excinfo:
        client.request("GET", "/v2/nope")
    assert excinfo.value.status == 404


def test_events_long_poll_cursor(service):
    client = ServiceClient(service.base_url)
    job_id = client.submit(SWEEP_DOC)["id"]
    wait_for(client, job_id)
    chunk = client.events(job_id, after=0, timeout=1.0)
    assert chunk["state"] == "done"
    assert chunk["next"] == len(chunk["events"])
    # The cursor resumes exactly where the previous poll left off.
    tail = client.events(job_id, after=chunk["next"] - 1, timeout=1.0)
    assert [event["seq"] for event in tail["events"]] == [chunk["next"]]


def test_named_study_document_and_resubmit_dedupe(service):
    # The acceptance path: submit rob-scaling, poll to completion, resubmit
    # and observe 100% cache dedupe (0 simulated).
    doc = {
        "kind": "study",
        "study": "rob-scaling",
        "num_uops": 200,
        "workloads": ["mcf"],
        "variants": ["ooo"],
    }
    client = ServiceClient(service.base_url)
    job_id = client.submit(doc)["id"]
    final, _ = wait_for(client, job_id)
    assert final["state"] == "done"
    assert final["accounting"]["total"] == final["cells"]["total"]
    assert final["accounting"]["total"] >= 4  # one cell per ROB point
    assert final["accounting"]["simulated"] > 0

    resubmit = client.submit(doc)
    assert resubmit["cells"]["cached"] == resubmit["cells"]["total"]
    final2, _ = wait_for(client, resubmit["id"])
    assert final2["accounting"]["simulated"] == 0
    assert final2["accounting"]["cached"] == final["accounting"]["total"]


def test_probe_reports_flow_through_service(service):
    doc = {
        "kind": "sweep",
        "spec": {
            "workloads": ["mcf"],
            "variants": ["ooo"],
            "num_uops": 200,
            "probes": ["stall_breakdown"],
        },
    }
    client = ServiceClient(service.base_url)
    job_id = client.submit(doc)["id"]
    final, _ = wait_for(client, job_id)
    assert final["state"] == "done"
    sweep = SweepResult.from_dict(client.result(job_id)["result"])
    reports = [
        entry.results["ooo"].probe_reports
        for cell in sweep.cells
        for entry in cell.comparison.benchmarks
    ]
    assert all("stall_breakdown" in report for report in reports)


def test_replay_document(service, tmp_path):
    trace = tmp_path / "mcf.trc"
    write_trace_file(trace, build_workload_source("mcf", num_uops=400), name="mcf")
    doc = {
        "kind": "replay",
        "spec": {"trace_file": str(trace), "variant": "ooo", "shards": 2},
    }
    client = ServiceClient(service.base_url)
    job_id = client.submit(doc)["id"]
    final, _ = wait_for(client, job_id)
    assert final["state"] == "done"
    assert final["accounting"]["total"] == 2  # one cell per shard
    result = client.result(job_id)["result"]
    assert result["total_uops"] == 400


# ---------------------------------------------------------------- backpressure


def test_full_queue_returns_429_with_retry_after(tmp_path):
    handle = ServiceThread(
        state_dir=tmp_path / "state",
        max_queue=2,
        retry_after=7.0,
        start_paused=True,  # nothing drains, so the queue genuinely fills
    )
    try:
        client = ServiceClient(handle.base_url)
        docs = [
            {
                "kind": "sweep",
                "spec": {
                    "workloads": ["mcf"],
                    "variants": ["ooo"],
                    "num_uops": 200 + i,
                },
            }
            for i in range(3)
        ]
        assert client.submit(docs[0])["state"] == "queued"
        assert client.submit(docs[1])["state"] == "queued"
        with pytest.raises(ServiceError) as excinfo:
            client.submit(docs[2])
        assert excinfo.value.status == 429
        assert excinfo.value.retry_after == 7.0
    finally:
        handle.stop()


# ------------------------------------------------------------ restart/resume


def test_killed_daemon_resumes_incomplete_jobs(tmp_path):
    state_dir = tmp_path / "state"
    # Daemon #1 admits two jobs but never runs them (paused), then dies.
    handle = ServiceThread(state_dir=state_dir, start_paused=True)
    client = ServiceClient(handle.base_url)
    first = client.submit(SWEEP_DOC)["id"]
    second = client.submit(
        {
            "kind": "sweep",
            "spec": {"workloads": ["milc"], "variants": ["ooo"], "num_uops": 200},
        }
    )["id"]
    assert handle.stop() == 0  # paused: nothing was interrupted

    # Daemon #2 on the same state dir folds the journal and finishes both.
    handle = ServiceThread(state_dir=state_dir)
    try:
        client = ServiceClient(handle.base_url)
        for job_id in (first, second):
            final, _ = wait_for(client, job_id)
            assert final["state"] == "done"
        # New submissions continue the id sequence instead of reusing it.
        assert client.submit(SWEEP_DOC)["id"] == "j000003"
    finally:
        handle.stop()


def test_restart_resumes_job_killed_mid_run(tmp_path):
    state_dir = tmp_path / "state"
    state_dir.mkdir()
    # Forge the journal of a daemon killed mid-execution: submitted+started
    # but never finished.  The document must be a *normalised* one, exactly
    # what a real admission would have persisted.
    document = parse_document(SWEEP_DOC).document
    with JobJournal(state_dir / "journal.jsonl") as journal:
        journal.append(
            {
                "event": "submitted",
                "id": "j000001",
                "seq": 1,
                "document": document,
                "description": "forged",
                "cells": {"total": 1, "cached": 0},
            }
        )
        journal.append({"event": "started", "id": "j000001"})
    handle = ServiceThread(state_dir=state_dir)
    try:
        client = ServiceClient(handle.base_url)
        assert client.job("j000001")["state"] in ("queued", "running", "done")
        final, _ = wait_for(client, "j000001")
        assert final["state"] == "done"
        assert final["accounting"]["total"] == 1
    finally:
        handle.stop()


def test_graceful_stop_mid_run_exits_interrupted_and_resumes(
    tmp_path, monkeypatch
):
    """SIGTERM-equivalent during a run: cancel at the next cell boundary,
    flush the journal, exit nonzero — then finish the job after restart."""
    import repro.simulation.engine as engine_module

    state_dir = tmp_path / "state"
    gate = threading.Event()
    real_execute = engine_module._execute_job

    def slow_execute(payload):
        gate.wait(30)  # hold the cell until the test has initiated shutdown
        return real_execute(payload)

    monkeypatch.setattr(engine_module, "_execute_job", slow_execute)
    handle = ServiceThread(state_dir=state_dir)
    client = ServiceClient(handle.base_url)
    job_id = client.submit(SWEEP_DOC)["id"]
    for _ in range(200):
        if client.job(job_id)["state"] == "running":
            break
        time.sleep(0.01)
    codes = []
    stopper = threading.Thread(target=lambda: codes.append(handle.stop()))
    stopper.start()
    # Release the held cell only once shutdown has raised the stop flag, so
    # the progress callback deterministically sees it and cancels the job.
    for _ in range(200):
        if handle.service._stop.is_set():
            break
        time.sleep(0.01)
    assert handle.service._stop.is_set()
    gate.set()
    stopper.join(timeout=30)
    assert codes == [EXIT_INTERRUPTED]

    monkeypatch.setattr(engine_module, "_execute_job", real_execute)
    handle = ServiceThread(state_dir=state_dir)
    try:
        client = ServiceClient(handle.base_url)
        final, _ = wait_for(client, job_id)
        assert final["state"] == "done"
        assert final["accounting"]["total"] == 1
    finally:
        assert handle.stop() == 0


# --------------------------------------------------------- failure taxonomy


def test_vanished_trace_fails_as_bad_spec_400(tmp_path):
    # A replay document valid at admission whose trace vanishes before
    # execution: the worker's re-parse rejects it, so the failure is
    # 400-class (the document is no longer valid), not a simulator crash.
    trace = tmp_path / "doomed.trc"
    write_trace_file(trace, build_workload_source("mcf", num_uops=200), name="mcf")
    doc = {"kind": "replay", "spec": {"trace_file": str(trace)}}
    handle = ServiceThread(state_dir=tmp_path / "state", start_paused=True)
    try:
        client = ServiceClient(handle.base_url)
        job_id = client.submit(doc)["id"]
        trace.unlink()
        handle.resume()
        final, events = wait_for(client, job_id)
        assert final["state"] == "failed"
        assert final["error_status"] == 400
        assert events[-1]["type"] == "failed"
        with pytest.raises(ServiceError) as excinfo:
            client.result(job_id)
        assert excinfo.value.status == 400
    finally:
        handle.stop()


def test_simulation_failure_is_500_class(tmp_path, monkeypatch):
    # A crash *inside* the simulator (not a document problem) must surface
    # as 500-class.  The daemon runs in-process, so patching the engine's
    # cell executor is exactly a simulator crash from the service's view.
    import repro.simulation.engine as engine_module

    def boom(payload):
        raise RuntimeError("simulated core meltdown")

    monkeypatch.setattr(engine_module, "_execute_job", boom)
    monkeypatch.setattr(
        engine_module, "_execute_batch", lambda payloads: [boom(p) for p in payloads]
    )
    handle = ServiceThread(state_dir=tmp_path / "state")
    try:
        client = ServiceClient(handle.base_url)
        job_id = client.submit(SWEEP_DOC)["id"]
        final, events = wait_for(client, job_id)
        assert final["state"] == "failed"
        assert final["error_status"] == 500
        assert "meltdown" in final["error"]
        assert events[-1]["type"] == "failed"
        with pytest.raises(ServiceError) as excinfo:
            client.result(job_id)
        assert excinfo.value.status == 500
    finally:
        handle.stop()


# ------------------------------------------------------------------ CLI client


def test_cli_submit_and_exit_codes(service, tmp_path, capsys):
    url = service.base_url
    doc_path = tmp_path / "doc.json"
    doc_path.write_text(json.dumps(SWEEP_DOC))
    assert main(["submit", str(doc_path), "--url", url]) == 0
    err = capsys.readouterr().err
    assert "1 simulated, 0 from cache" in err
    assert main(["submit", str(doc_path), "--url", url]) == 0
    err = capsys.readouterr().err
    assert "0 simulated, 1 from cache" in err
    assert main(["status", "--url", url]) == 0
    assert main(["status", "j000001", "--url", url]) == 0


def test_cli_bad_document_exits_2(service, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "sweep", "spec": {"bogus": 1}}))
    assert main(["submit", str(bad), "--url", service.base_url]) == EXIT_BAD_SPEC
    assert "unknown field" in capsys.readouterr().err

    not_json = tmp_path / "not.json"
    not_json.write_text("{nope")
    assert main(["submit", str(not_json), "--url", service.base_url]) == EXIT_BAD_SPEC


def test_cli_busy_exits_75(tmp_path, capsys):
    handle = ServiceThread(
        state_dir=tmp_path / "state", max_queue=0, start_paused=True
    )
    try:
        doc_path = tmp_path / "doc.json"
        doc_path.write_text(json.dumps(SWEEP_DOC))
        assert main(["submit", str(doc_path), "--url", handle.base_url]) == EXIT_BUSY
        assert "retry after" in capsys.readouterr().err
    finally:
        handle.stop()


def test_cli_failed_job_status_exits_3(tmp_path, capsys, monkeypatch):
    import repro.simulation.engine as engine_module

    def boom(payload):
        raise RuntimeError("simulated core meltdown")

    monkeypatch.setattr(engine_module, "_execute_job", boom)
    monkeypatch.setattr(
        engine_module, "_execute_batch", lambda payloads: [boom(p) for p in payloads]
    )
    handle = ServiceThread(state_dir=tmp_path / "state")
    try:
        client = ServiceClient(handle.base_url)
        job_id = client.submit(SWEEP_DOC)["id"]
        wait_for(client, job_id)
        code = main(["status", job_id, "--url", handle.base_url])
        assert code == EXIT_SIM_FAILURE
    finally:
        handle.stop()
