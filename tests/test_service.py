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
from http.client import HTTPConnection
from urllib.parse import urlsplit

import pytest

from repro.__main__ import main
from repro.errors import (
    EXIT_BAD_SPEC,
    EXIT_BUSY,
    EXIT_INTERRUPTED,
    EXIT_SIM_FAILURE,
    BadSpecError,
)
from repro.registry import PROBE_REGISTRY, build_workload_source
from repro.service import ServiceClient, ServiceError, parse_document
from repro.service.fleet import CELL_ID_HEX
from repro.service.journal import JobJournal, next_seq, replay_journal
from repro.service.server import EVENT_BATCH_WINDOW, ServiceThread
from repro.simulation.engine import (
    ExperimentEngine,
    SweepResult,
    job_cache_key,
    sweep_jobs,
    sweep_result,
)
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
    "zero-max-cycles": {
        "kind": "sweep",
        "spec": {"workloads": ["mcf"], "max_cycles": 0},
    },
    "negative-max-cycles-study": {
        "kind": "study",
        "spec": {
            "name": "s",
            "workloads": ["mcf"],
            "max_cycles": -5,
            "axes": [
                {"name": "rob", "points": [{"label": "64", "core": {"rob_size": 64}}]}
            ],
        },
    },
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


#: Sweep specs with a wrongly typed value, and the field the 400 must name.
WRONGLY_TYPED_DOCS = {
    "fractional-uops": (
        {"workloads": ["mcf"], "num_uops": 100.5}, "SweepSpec.num_uops"
    ),
    "boolean-uops": ({"workloads": ["mcf"], "num_uops": True}, "SweepSpec.num_uops"),
    "string-max-cycles": (
        {"workloads": ["mcf"], "max_cycles": "x"}, "SweepSpec.max_cycles"
    ),
    "configs-object": (
        {"workloads": ["mcf"], "configs": {"rob_size": 64}}, "SweepSpec.configs"
    ),
    "workloads-string": ({"workloads": "mcf"}, "SweepSpec.workloads"),
    "fractional-rob": (
        {"workloads": ["mcf"], "configs": [{"rob_size": 64.5}]}, "CoreConfig.rob_size"
    ),
}


@pytest.mark.parametrize("name", sorted(WRONGLY_TYPED_DOCS))
def test_wrongly_typed_document_is_http_400(service, name):
    # Strict admission checks JSON types and shapes, not just field names:
    # none of these may run (coerced), fail later with a 500, or be admitted.
    spec, field = WRONGLY_TYPED_DOCS[name]
    client = ServiceClient(service.base_url)
    with pytest.raises(ServiceError) as excinfo:
        client.submit({"kind": "sweep", "spec": spec})
    assert excinfo.value.status == 400
    assert field in excinfo.value.message
    assert client.jobs()["jobs"] == []


def test_named_study_narrowing_is_strictly_typed(service):
    client = ServiceClient(service.base_url)
    for doc in (
        {"kind": "study", "study": "rob-scaling", "num_uops": 100.5},
        {"kind": "study", "study": "rob-scaling", "workloads": "mcf"},
    ):
        with pytest.raises(ServiceError, match="StudySpec") as excinfo:
            client.submit(doc)
        assert excinfo.value.status == 400
    assert client.jobs()["jobs"] == []


def _raw_get(base_url, path):
    """One GET, returning the status and the undecoded response body."""
    parts = urlsplit(base_url)
    connection = HTTPConnection(parts.hostname, parts.port, timeout=30)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def test_result_body_is_the_envelope_with_the_stored_document(service):
    client = ServiceClient(service.base_url)
    job_id = client.submit(SWEEP_DOC)["id"]
    final, _ = wait_for(client, job_id)
    status, body = _raw_get(service.base_url, f"/v1/jobs/{job_id}/result")
    assert status == 200
    stored = (service.service.results_dir / f"{job_id}.json").read_bytes()
    envelope = {
        "id": job_id,
        "kind": "sweep",
        "accounting": final["accounting"],
        "result": json.loads(stored),
    }
    assert body == json.dumps(envelope).encode()


def test_corrupt_or_missing_result_file_is_http_500(service):
    client = ServiceClient(service.base_url)
    job_id = client.submit(SWEEP_DOC)["id"]
    wait_for(client, job_id)
    path = service.service.results_dir / f"{job_id}.json"
    path.write_bytes(path.read_bytes()[:-10])  # truncated: no longer decodes
    with pytest.raises(ServiceError) as excinfo:
        client.result(job_id)
    assert excinfo.value.status == 500
    assert "missing/corrupt" in excinfo.value.message
    path.unlink()
    with pytest.raises(ServiceError) as excinfo:
        client.result(job_id)
    assert excinfo.value.status == 500
    assert "missing/corrupt" in excinfo.value.message


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


def test_malformed_events_query_is_http_400(service):
    client = ServiceClient(service.base_url)
    job_id = client.submit(SWEEP_DOC)["id"]
    _, events = wait_for(client, job_id)
    path = f"/v1/jobs/{job_id}/events"
    for query, field in [
        ("after=abc", "after"),
        ("after=1.5", "after"),
        # A negative cursor used to answer next = after + len(events), so the
        # following poll re-delivered events.
        ("after=-3", "after"),
        ("timeout=abc", "timeout"),
        ("timeout=inf", "timeout"),
        ("timeout=nan", "timeout"),
    ]:
        status, body = _raw_get(service.base_url, f"{path}?{query}")
        assert status == 400, query
        assert field in json.loads(body)["error"], query
    status, body = _raw_get(service.base_url, f"{path}?after=1&timeout=0.5")
    assert status == 200
    assert json.loads(body)["events"] == events[1:]


# ---------------------------------------------- spliced results, batched events

#: Sweeps whose spliced documents must match the decoded fold byte for byte.
SPLICE_SPECS = {
    "single-config": {"workloads": ["mcf", "milc"], "variants": ["ooo", "pre"]},
    "configs": {
        "workloads": ["mcf"],
        "variants": ["ooo", "pre"],
        "configs": [{}, {"rob_size": 64}],
    },
    "multicore": {
        "workloads": ["mcf"],
        "variants": ["ooo", "pre"],
        "multicore": {"cores": [{"workload": "milc", "variant": "ooo"}]},
    },
    "probed": {
        "workloads": ["mcf"],
        "variants": ["ooo", "pre"],
        "probes": PROBE_REGISTRY.names(),
    },
}


@pytest.mark.parametrize("name", sorted(SPLICE_SPECS))
def test_spliced_sweep_document_matches_the_decoded_fold(tmp_path, name):
    parsed = parse_document(
        {"kind": "sweep", "spec": dict(SPLICE_SPECS[name], num_uops=300)}
    )
    uncached = ExperimentEngine()
    expected = json.dumps(
        sweep_result(parsed.spec, uncached.run_jobs(sweep_jobs(parsed.spec, uncached)))
        .to_dict()
    )
    engine = ExperimentEngine(cache_dir=tmp_path / "cache")
    cold = parsed.execute(engine)
    assert engine.last_run_stats.simulated == engine.last_run_stats.total_jobs
    warm = parsed.execute(engine)
    assert engine.last_run_stats.cache_hits == engine.last_run_stats.total_jobs
    assert cold == expected
    assert warm == expected


def test_a_corrupt_cached_cell_is_resimulated_into_the_same_document(service):
    doc = {
        "kind": "sweep",
        "spec": {"workloads": ["mcf"], "variants": ["ooo", "pre"], "num_uops": 200},
    }
    client = ServiceClient(service.base_url)
    cold_id = client.submit(doc)["id"]
    wait_for(client, cold_id)
    engine = service.service.engine
    payloads = engine.expand_job_payloads(parse_document(doc).jobs(engine))
    entry = engine.cache.path_for(job_cache_key(payloads[1]))
    entry.write_bytes(entry.read_bytes()[:-10])  # truncated: no longer decodes

    warm_id = client.submit(doc)["id"]
    final, events = wait_for(client, warm_id)
    assert final["accounting"] == {"total": 2, "cached": 1, "simulated": 1}
    assert [event["source"] for event in events if event["type"] == "cell"] == [
        "cached", "simulated",
    ]
    results = service.service.results_dir
    cold = (results / f"{cold_id}.json").read_bytes()
    assert (results / f"{warm_id}.json").read_bytes() == cold
    # The re-simulated cell is stored again, whole.
    stored = json.loads(cold)["cells"][0]["comparison"]["benchmarks"][0]["results"]
    assert json.loads(entry.read_text()) == stored["pre"]


def test_events_arrive_once_in_order_and_a_cached_job_takes_two_polls(
    service, monkeypatch
):
    import repro.service.server as server_module

    doc = {
        "kind": "sweep",
        "spec": {
            "workloads": ["mcf", "milc"],
            "variants": ["ooo", "runahead", "pre"],
            "num_uops": 200,
        },
    }
    client = ServiceClient(service.base_url)
    polls = []
    real_events = client.events

    def counted_events(*args, **kwargs):
        polls.append(real_events(*args, **kwargs))
        return polls[-1]

    client.events = counted_events

    def run_job():
        polls.clear()
        final, events = wait_for(client, client.submit(doc)["id"])
        assert final["state"] == "done"
        delivered = [event for chunk in polls for event in chunk["events"]]
        assert delivered == events
        assert [event["seq"] for event in events] == list(range(1, len(events) + 1))
        cells = [event for event in events if event["type"] == "cell"]
        kinds = [event["type"] for event in events]
        assert kinds == ["started"] + ["cell"] * 6 + ["done"]
        assert [event["done"] for event in cells] == list(range(1, 7))
        return cells

    assert {event["source"] for event in run_job()} == {"simulated"}
    # A state change answers a poll at once, so the window only bounds how
    # long cell events gather.  Widened here so that a slow host cannot split
    # the warm job's burst; the daemon's own window is a tenth of a second.
    monkeypatch.setattr(server_module, "EVENT_BATCH_WINDOW", 30.0)
    began = time.monotonic()
    assert {event["source"] for event in run_job()} == {"cached"}
    assert time.monotonic() - began < 10.0
    assert 1 <= len(polls) <= 2


def test_a_poll_on_a_held_job_is_answered_within_the_window(tmp_path, monkeypatch):
    """A state change answers a poll at once, and a cell held mid-run does not
    hold back the events before it: a pending poll answers one batching
    window after the first of them lands."""
    import repro.service.server as server_module
    import repro.simulation.engine as engine_module

    gates = [threading.Event(), threading.Event()]
    calls = []
    real_execute = engine_module.execute_cell_payload

    def gated_execute(payload):
        calls.append(payload)
        gates[len(calls) - 1].wait(30)
        return real_execute(payload)

    monkeypatch.setattr(engine_module, "execute_cell_payload", gated_execute)
    doc = {
        "kind": "sweep",
        "spec": {"workloads": ["mcf"], "variants": ["ooo", "pre"], "num_uops": 200},
    }
    handle = ServiceThread(state_dir=tmp_path / "state")
    try:
        client = ServiceClient(handle.base_url)
        job_id = client.submit(doc)["id"]
        monkeypatch.setattr(server_module, "EVENT_BATCH_WINDOW", 30.0)
        began = time.monotonic()
        first = client.events(job_id, after=0, timeout=25.0)
        assert time.monotonic() - began < 10.0  # not held for the window
        assert [event["type"] for event in first["events"]] == ["started"]
        monkeypatch.setattr(server_module, "EVENT_BATCH_WINDOW", EVENT_BATCH_WINDOW)
        polled = {}

        def poll():
            polled["chunk"] = client.events(job_id, after=first["next"], timeout=25.0)
            polled["at"] = time.monotonic()

        poller = threading.Thread(target=poll, daemon=True)
        poller.start()
        job = handle.service.jobs[job_id]
        for _ in range(500):
            if job.waiters:
                break
            time.sleep(0.01)
        assert job.waiters, "the long-poll never reached the daemon"
        released = time.monotonic()
        gates[0].set()
        poller.join(timeout=10.0)
        assert not poller.is_alive(), "the long-poll was never answered"
        assert EVENT_BATCH_WINDOW * 0.9 <= polled["at"] - released < 5.0
        assert polled["chunk"]["state"] == "running"
        assert [
            (event["seq"], event["type"], event["done"], event["source"])
            for event in polled["chunk"]["events"]
        ] == [(2, "cell", 1, "simulated")]
        gates[1].set()
        final, _ = wait_for(client, job_id)
        assert final["state"] == "done"
    finally:
        for gate in gates:
            gate.set()
        handle.stop()


def test_journal_and_result_writes_stay_off_the_event_loop(tmp_path, monkeypatch):
    import repro.service.server as server_module
    import repro.simulation.engine as engine_module

    writes = []
    real_append = JobJournal.append
    real_write = server_module.write_json_text

    def recording_append(self, event):
        writes.append((event["event"], threading.get_ident()))
        real_append(self, event)

    def recording_write(path, text):
        writes.append(("result", threading.get_ident()))
        real_write(path, text)

    monkeypatch.setattr(JobJournal, "append", recording_append)
    monkeypatch.setattr(server_module, "write_json_text", recording_write)
    handle = ServiceThread(state_dir=tmp_path / "state")
    try:
        client = ServiceClient(handle.base_url)
        assert wait_for(client, client.submit(SWEEP_DOC)["id"])[0]["state"] == "done"

        def boom(payload):
            raise RuntimeError("simulated core meltdown")

        monkeypatch.setattr(engine_module, "execute_cell_payload", boom)
        doc = {"kind": "sweep", "spec": dict(SWEEP_DOC["spec"], num_uops=300)}
        assert wait_for(client, client.submit(doc)["id"])[0]["state"] == "failed"
        loop_thread = handle._thread.ident
    finally:
        handle.stop()
    assert {"submitted", "started", "finished", "result", "failed"} <= {
        kind for kind, _ in writes
    }
    assert [kind for kind, thread in writes if thread == loop_thread] == []


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


def test_restart_fails_a_resumed_job_whose_cell_is_quarantined(tmp_path):
    """A cell quarantined in an earlier daemon life fails its resumed job
    even with no worker registered: the local executor never re-runs it."""
    state_dir = tmp_path / "state"
    state_dir.mkdir()
    parsed = parse_document(SWEEP_DOC)
    engine = ExperimentEngine()
    [payload] = engine.expand_job_payloads(sweep_jobs(parsed.spec, engine))
    cell = job_cache_key(payload)[:CELL_ID_HEX]
    with JobJournal(state_dir / "journal.jsonl") as journal:
        journal.append(
            {
                "event": "submitted",
                "id": "j000001",
                "seq": 1,
                "document": parsed.document,
                "description": "forged",
                "cells": {"total": 1, "cached": 0},
            }
        )
        journal.append({"event": "started", "id": "j000001"})
        journal.append(
            {"event": "lease", "action": "claim", "id": "j000001",
             "lease": "L000001", "worker": "w0001", "cells": [cell]}
        )
        journal.append(
            {"event": "quarantined", "id": "j000001", "cell": cell,
             "attempts": 1, "error": "worker w0001 crashed on it"}
        )
    handle = ServiceThread(state_dir=state_dir)
    try:
        client = ServiceClient(handle.base_url)
        final, _ = wait_for(client, "j000001")
        assert client.status()["fleet"]["workers"] == []
        assert final["state"] == "failed"
        assert final["error_status"] == 500
        assert f"cell {cell} quarantined after 1 attempt(s)" in final["error"]
        assert "worker w0001 crashed on it" in final["error"]
        assert final["quarantined"] == {cell: "worker w0001 crashed on it"}
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
    real_execute = engine_module.execute_cell_payload

    def slow_execute(payload):
        gate.wait(30)  # hold the cell until the test has initiated shutdown
        return real_execute(payload)

    monkeypatch.setattr(engine_module, "execute_cell_payload", slow_execute)
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

    monkeypatch.setattr(engine_module, "execute_cell_payload", real_execute)
    handle = ServiceThread(state_dir=state_dir)
    try:
        client = ServiceClient(handle.base_url)
        final, _ = wait_for(client, job_id)
        assert final["state"] == "done"
        assert final["accounting"]["total"] == 1
    finally:
        assert handle.stop() == 0


def test_stop_answers_an_in_flight_long_poll(tmp_path):
    """Stopping the daemon answers a pending ``/events`` long-poll at once,
    instead of waiting out its timeout or leaving the client hanging."""
    handle = ServiceThread(state_dir=tmp_path / "state", start_paused=True)
    client = ServiceClient(handle.base_url)
    job_id = client.submit(SWEEP_DOC)["id"]
    after = client.job(job_id)["events"]
    polled = {}

    def poll():
        try:
            polled["chunk"] = client.events(job_id, after=after, timeout=25.0)
        except BaseException as exc:  # noqa: BLE001 — test capture
            polled["error"] = exc

    poller = threading.Thread(target=poll, daemon=True)
    poller.start()
    job = handle.service.jobs[job_id]
    for _ in range(500):
        if job.waiters:
            break
        time.sleep(0.01)
    assert job.waiters, "the long-poll never reached the daemon"
    began = time.monotonic()
    assert handle.stop(timeout=5.0) == 0
    poller.join(timeout=5.0)
    assert not poller.is_alive(), "the long-poll was never answered"
    assert time.monotonic() - began < 5.0
    assert "error" not in polled, polled.get("error")
    assert polled["chunk"]["state"] == "queued"
    assert polled["chunk"]["events"] == []


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

    monkeypatch.setattr(engine_module, "execute_cell_payload", boom)
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

    monkeypatch.setattr(engine_module, "execute_cell_payload", boom)
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
