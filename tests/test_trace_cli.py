"""Trace record/info/replay CLI and content-keyed result caching."""

import json

from repro.__main__ import main
from repro.registry import build_workload
from repro.simulation.engine import ExperimentEngine, JobSpec
from repro.simulation.simulator import SimulationRequest, run_simulation
from repro.workloads.source import FileTraceSource, write_trace_file


def record(tmp_path, workload="milc", uops=600, name=None, filename="t.trc"):
    path = tmp_path / filename
    argv = ["trace", "record", "--workload", workload, "--uops", str(uops),
            "--output", str(path)]
    if name:
        argv += ["--name", name]
    assert main(argv) == 0
    return path


def replay(engine, path):
    """Replay a recorded file on ooo and pre; the results as dicts."""
    source = FileTraceSource(path)
    jobs = [JobSpec(trace=source, variant=variant) for variant in ("ooo", "pre")]
    return [result.to_dict() for result in engine.run_jobs(jobs)]


class TestRecordInfo:
    def test_record_then_info(self, tmp_path, capsys):
        path = record(tmp_path, workload="milc", uops=600)
        out = capsys.readouterr().out
        assert "recorded" in out and "milc" in out
        assert main(["trace", "info", str(path), "--stats"]) == 0
        out = capsys.readouterr().out
        assert "micro-ops: " in out
        assert "loads" in out

    def test_recorded_stream_matches_workload(self, tmp_path):
        path = record(tmp_path, workload="mcf", uops=500)
        trace = build_workload("mcf", num_uops=500)
        assert list(FileTraceSource(path)) == list(trace)

    def test_record_unknown_workload_fails_cleanly(self, tmp_path):
        rc = main(["trace", "record", "--workload", "nope",
                   "--output", str(tmp_path / "x.trc")])
        assert rc == 2

    def test_info_on_non_trace_file(self, tmp_path):
        bogus = tmp_path / "bogus.trc"
        bogus.write_text("hello")
        assert main(["trace", "info", str(bogus)]) == 2


class TestReplay:
    def test_replay_matches_direct_simulation(self, tmp_path, capsys):
        path = record(tmp_path, workload="milc", uops=600)
        capsys.readouterr()
        out_json = tmp_path / "cmp.json"
        rc = main(["trace", "replay", str(path), "--variants", "pre",
                   "--figure", "summary", "--output", str(out_json)])
        assert rc == 0
        payload = json.loads(out_json.read_text())
        replayed = payload["benchmarks"][0]["results"]["pre"]
        direct = run_simulation(FileTraceSource(path), SimulationRequest(variant="pre"))
        assert replayed["stats"] == direct.stats.to_dict()
        assert replayed["energy"] == direct.energy.to_dict()

    def test_replay_uses_header_name_as_benchmark(self, tmp_path, capsys):
        path = record(tmp_path, workload="milc", uops=500, name="renamed")
        capsys.readouterr()
        out_json = tmp_path / "cmp.json"
        assert main(["trace", "replay", str(path), "--variants", "pre",
                     "--figure", "summary", "--output", str(out_json)]) == 0
        payload = json.loads(out_json.read_text())
        assert payload["benchmarks"][0]["benchmark"] == "renamed"


class TestContentKeyedCache:
    """Satellite: edited/re-recorded trace files never serve stale cached cells."""

    def test_replay_cache_hit_then_invalidation_on_rerecord(self, tmp_path):
        path = tmp_path / "bench.trc"
        cache = tmp_path / "cache"
        write_trace_file(path, build_workload("milc", num_uops=600), name="bench")

        engine = ExperimentEngine(cache_dir=cache)
        first = replay(engine, path)
        assert engine.last_run_stats.simulated == 2  # ooo + pre

        # Identical file -> full cache hit.
        engine = ExperimentEngine(cache_dir=cache)
        cached = replay(engine, path)
        assert engine.last_run_stats.simulated == 0
        assert engine.last_run_stats.cache_hits == 2
        assert cached == first

        # Re-record different content under the SAME name and path: the
        # content digest changes, so nothing stale is served.
        write_trace_file(path, build_workload("mcf", num_uops=600), name="bench")
        engine = ExperimentEngine(cache_dir=cache)
        replayed = replay(engine, path)
        assert engine.last_run_stats.simulated == 2
        assert engine.last_run_stats.cache_hits == 0
        assert replayed != first

    def test_identical_content_hits_cache_from_a_different_path(self, tmp_path):
        first = tmp_path / "a.trc"
        cache = tmp_path / "cache"
        write_trace_file(first, build_workload("milc", num_uops=500), name="bench")
        engine = ExperimentEngine(cache_dir=cache)
        replay(engine, first)
        assert engine.last_run_stats.simulated == 2

        moved = tmp_path / "subdir" / "b.trc"
        moved.parent.mkdir()
        moved.write_bytes(first.read_bytes())
        engine = ExperimentEngine(cache_dir=cache)
        replay(engine, moved)
        # Content keying: same bytes at a new path is a full cache hit.
        assert engine.last_run_stats.simulated == 0
        assert engine.last_run_stats.cache_hits == 2

    def test_cli_replay_cache_roundtrip(self, tmp_path, capsys):
        path = record(tmp_path, workload="milc", uops=500)
        cache = str(tmp_path / "cache")
        assert main(["trace", "replay", str(path), "--variants", "pre",
                     "--figure", "summary", "--cache-dir", cache]) == 0
        first_err = capsys.readouterr().err
        assert "2 simulated" in first_err
        assert main(["trace", "replay", str(path), "--variants", "pre",
                     "--figure", "summary", "--cache-dir", cache]) == 0
        second_err = capsys.readouterr().err
        assert "0 simulated" in second_err
        assert "2 from cache" in second_err


class TestListShowsProbes:
    def test_list_includes_probe_section(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "Probes" in out
        assert "ipc_timeline" in out
