"""Result-cache administration: size bounds, LRU eviction, concurrency, keys.

Four contracts:

* **stats/prune**: ``stats()`` reports live entry counts and bytes;
  ``prune(max_bytes)`` evicts oldest-*use* first (hits refresh recency via
  mtime) and reports exactly what it removed;
* **auto-eviction**: a cache constructed with ``max_bytes`` never exceeds
  its bound after a ``put``;
* **concurrency**: writes are write-then-rename atomic — concurrent readers
  of a key being overwritten see either a complete old or a complete new
  payload, never a torn one — and ``contains()`` never perturbs the
  hit/miss counters (the service's admission probe depends on that);
* **key stability**: ``job_cache_key`` is a pure function of the schema-v4
  descriptor fields — property-tested (hypothesis) for determinism,
  insensitivity to dict ordering, and sensitivity to every field the v4
  schema added (probes, window, warmup) — and equals the SHA-256 of the
  descriptor's ``canonical_json`` for every kind of payload.
"""

import enum
import hashlib
import json
import os
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.__main__ import main
from repro.registry import WORKLOAD_REGISTRY, register_workload
from repro.serde import canonical_json
from repro.simulation.engine import (
    CACHE_SCHEMA_VERSION,
    CacheStats,
    ExperimentEngine,
    JobSpec,
    PruneResult,
    ResultCache,
    SweepSpec,
    _workload_token,
    job_cache_key,
    sweep_jobs,
)
from repro.simulation.multicore import CoreAssignment, MultiCoreSpec
from repro.workloads.generators import compute_kernel
from repro.workloads.source import FileTraceSource, write_trace_file
from repro.workloads.spec_surrogates import build_surrogate


def put_sized(cache, key, approx_bytes):
    """Store an entry of roughly ``approx_bytes`` on disk."""
    cache.put(key, {"pad": "x" * approx_bytes})


def set_age(cache, key, age_s):
    """Backdate an entry's recency by ``age_s`` seconds (deterministic LRU)."""
    path = cache.path_for(key)
    stamp = os.stat(path).st_mtime - age_s
    os.utime(path, (stamp, stamp))


# ---------------------------------------------------------------- stats/prune


def test_stats_counts_entries_and_bytes(tmp_path):
    cache = ResultCache(tmp_path)
    assert cache.stats() == CacheStats(
        directory=str(tmp_path), entries=0, total_bytes=0
    )
    put_sized(cache, "a", 100)
    put_sized(cache, "b", 200)
    stats = cache.stats()
    assert stats.entries == 2
    assert stats.total_bytes == sum(
        os.path.getsize(cache.path_for(k)) for k in ("a", "b")
    )


def test_prune_evicts_least_recently_used_first(tmp_path):
    cache = ResultCache(tmp_path)
    for key, age in (("old", 300), ("mid", 200), ("new", 100)):
        put_sized(cache, key, 100)
        set_age(cache, key, age)
    keep = os.path.getsize(cache.path_for("new"))
    result = cache.prune(max_bytes=keep)
    assert isinstance(result, PruneResult)
    assert result.evicted == 2
    assert result.remaining_entries == 1
    assert not cache.contains("old") and not cache.contains("mid")
    assert cache.contains("new")
    assert cache.evictions == 2


def test_hit_refreshes_recency_and_spares_hot_entries(tmp_path):
    cache = ResultCache(tmp_path)
    put_sized(cache, "hot", 100)
    put_sized(cache, "cold", 100)
    for key in ("hot", "cold"):
        set_age(cache, key, 1000)
    assert cache.get("hot") is not None  # the hit touches mtime
    cache.prune(max_bytes=os.path.getsize(cache.path_for("hot")))
    assert cache.contains("hot")
    assert not cache.contains("cold")


def test_prune_zero_empties_cache(tmp_path):
    cache = ResultCache(tmp_path)
    put_sized(cache, "a", 10)
    result = cache.prune(max_bytes=0)
    assert result.remaining_entries == 0 and result.remaining_bytes == 0
    assert len(cache) == 0


def test_prune_without_bound_raises(tmp_path):
    cache = ResultCache(tmp_path)
    with pytest.raises(ValueError, match="max_bytes"):
        cache.prune()


def test_put_auto_evicts_to_configured_bound(tmp_path):
    # A bound smaller than any single entry means every put self-evicts.
    cache = ResultCache(tmp_path / "tiny", max_bytes=1)
    put_sized(cache, "a", 50)
    assert len(cache) == 0

    roomy = ResultCache(tmp_path / "roomy", max_bytes=10_000)
    for index in range(50):
        put_sized(roomy, f"k{index}", 300)
        assert roomy.stats().total_bytes <= 10_000
    assert 0 < len(roomy) < 50  # bounded, not emptied


def test_unbounded_cache_never_auto_evicts(tmp_path):
    cache = ResultCache(tmp_path)
    for index in range(20):
        put_sized(cache, f"k{index}", 200)
    assert len(cache) == 20
    assert cache.evictions == 0


# ---------------------------------------------------------------- concurrency


def test_contains_does_not_touch_counters(tmp_path):
    cache = ResultCache(tmp_path)
    put_sized(cache, "a", 10)
    assert cache.contains("a") and not cache.contains("b")
    assert (cache.hits, cache.misses) == (0, 0)
    assert cache.get("a") is not None
    assert (cache.hits, cache.misses) == (1, 0)


def test_concurrent_overwrites_never_yield_torn_reads(tmp_path):
    """Write-then-rename atomicity under real thread contention."""
    cache = ResultCache(tmp_path)
    key = "contended"
    payloads = [{"generation": g, "fill": "y" * 2000} for g in range(2)]
    cache.put(key, payloads[0])
    stop = threading.Event()
    failures = []

    def writer():
        generation = 0
        while not stop.is_set():
            cache.put(key, payloads[generation % 2])
            generation += 1

    def reader():
        while not stop.is_set():
            payload = cache.get(key)
            if payload is None or payload not in payloads:
                failures.append(payload)

    threads = [threading.Thread(target=writer) for _ in range(2)]
    threads += [threading.Thread(target=reader) for _ in range(4)]
    for thread in threads:
        thread.start()
    threading.Event().wait(0.5)
    stop.set()
    for thread in threads:
        thread.join()
    assert failures == []


def test_concurrent_put_prune_is_safe(tmp_path):
    """Prune racing fresh puts neither crashes nor corrupts survivors."""
    cache = ResultCache(tmp_path)
    stop = threading.Event()
    errors = []

    def writer(tag):
        index = 0
        while not stop.is_set():
            try:
                cache.put(f"{tag}-{index % 20}", {"tag": tag, "index": index})
            except Exception as exc:  # noqa: BLE001 — the test asserts "never"
                errors.append(exc)
            index += 1

    def pruner():
        while not stop.is_set():
            try:
                cache.prune(max_bytes=500)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

    threads = [threading.Thread(target=writer, args=(t,)) for t in "ab"]
    threads.append(threading.Thread(target=pruner))
    for thread in threads:
        thread.start()
    threading.Event().wait(0.5)
    stop.set()
    for thread in threads:
        thread.join()
    assert errors == []
    for path in cache.directory.glob("*.json"):
        json.loads(path.read_text())  # every survivor is complete JSON


def test_engine_cache_probe_counts_without_perturbing(tmp_path):
    engine = ExperimentEngine(cache_dir=tmp_path / "cache")
    spec = SweepSpec(workloads=["mcf"], variants=["ooo"], num_uops=200)
    payloads = engine.expand_sweep_payloads(spec)
    assert engine.cache_probe(payloads) == (0, 1)
    engine.run_sweep(spec)
    hits_before = (engine.cache.hits, engine.cache.misses)
    assert engine.cache_probe(payloads) == (1, 1)
    assert (engine.cache.hits, engine.cache.misses) == hits_before


# ------------------------------------------------------------------ CLI admin


def test_cache_cli_stats_and_prune(tmp_path, capsys):
    cache = ResultCache(tmp_path / "cache")
    put_sized(cache, "a", 100)
    put_sized(cache, "b", 100)
    assert main(["cache", "stats", "--cache-dir", str(tmp_path / "cache")]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["entries"] == 2

    assert main(
        ["cache", "prune", "--cache-dir", str(tmp_path / "cache"),
         "--max-bytes", "0"]
    ) == 0
    pruned = json.loads(capsys.readouterr().out)
    assert pruned["evicted"] == 2 and pruned["remaining_entries"] == 0


def test_cache_cli_requires_exactly_one_target(tmp_path, capsys):
    assert main(["cache", "stats"]) == 2
    assert main(["cache", "prune", "--cache-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "exactly one of" in err and "--max-bytes" in err


# ------------------------------------------------------------- key stability


def _payload(variant, num_uops, max_cycles, probes, window, warmup):
    return {
        "variant": variant,
        "source": {"kind": "workload", "name": "mcf", "num_uops": num_uops},
        "config": {"rob_size": 128},
        "hierarchy": None,
        "max_cycles": max_cycles,
        "probes": list(probes),
        "window": list(window) if window is not None else None,
        "warmup_uops": warmup,
    }


_descriptors = st.tuples(
    st.sampled_from(["ooo", "pre"]),
    st.integers(min_value=1, max_value=10**6),
    st.one_of(st.none(), st.integers(min_value=1, max_value=10**6)),
    st.lists(st.sampled_from(["mlp", "occupancy", "energy"]), max_size=3),
    st.one_of(
        st.none(),
        st.tuples(
            st.integers(min_value=0, max_value=100),
            st.integers(min_value=101, max_value=200),
        ),
    ),
    st.integers(min_value=0, max_value=64),
)


@settings(max_examples=200, deadline=None)
@given(_descriptors, _descriptors)
def test_job_cache_key_is_stable_and_field_sensitive(a, b):
    key_a = job_cache_key(_payload(*a))
    assert key_a == job_cache_key(_payload(*a))  # deterministic
    # Distinct schema-v4 descriptors get distinct keys (and equal ones equal
    # keys): every field — probes, window, warmup included — is load-bearing.
    assert (key_a == job_cache_key(_payload(*b))) == (a == b)


@settings(max_examples=50, deadline=None)
@given(_descriptors)
def test_job_cache_key_ignores_dict_ordering(descriptor):
    payload = _payload(*descriptor)
    reordered = dict(reversed(list(payload.items())))
    assert job_cache_key(payload) == job_cache_key(reordered)


class _Shade(enum.Enum):
    DARK = "dark"


def _registered_token(name):
    """A workload's token as registered, before any lowering."""
    entry = WORKLOAD_REGISTRY.get(name)
    token = entry.metadata.get("cache_token")
    return _workload_token(entry) if token is None else token


def _reference_key(payload):
    """The key as defined: SHA-256 of the descriptor's ``canonical_json``."""
    source = dict(payload["source"])
    if source["kind"] == "workload":
        source["token"] = _registered_token(source["name"])
    if source["kind"] == "file":
        source = {"kind": "file", "digest": source["digest"], "name": source["name"]}
    multicore = payload["multicore"]
    if multicore is not None:
        multicore = {
            "spec": multicore["spec"],
            "tokens": [
                _registered_token(core["workload"]) for core in multicore["spec"]["cores"]
            ],
        }
    descriptor = {
        "schema": CACHE_SCHEMA_VERSION,
        "variant": payload["variant"],
        "source": source,
        "config": payload["config"],
        "hierarchy": payload["hierarchy"],
        "max_cycles": payload["max_cycles"],
        "probes": payload["probes"],
        "window": payload["window"],
        "warmup_uops": payload["warmup_uops"],
        "multicore": multicore,
    }
    return hashlib.sha256(canonical_json(descriptor).encode()).hexdigest()


def test_job_cache_key_is_the_canonical_json_digest_of_every_payload_kind(tmp_path):
    # A token json.dumps cannot take as is: non-str keys of mixed types, a
    # tuple and an enum.  Lowered once, it hashes as canonical_json would.
    register_workload(
        "test_odd_token",
        cache_token={True: ("x", 1), 2: [None, 1.5], "k": {"shade": _Shade.DARK}},
    )(compute_kernel)
    try:
        engine = ExperimentEngine(workers=1, cache_dir=tmp_path / "cache")
        trace = build_surrogate("milc", num_uops=600)
        path = tmp_path / "milc.trc"
        write_trace_file(path, trace)
        recorded = FileTraceSource(path)
        co_runners = MultiCoreSpec(
            cores=[
                CoreAssignment(workload="mcf", variant="ooo", num_uops=200),
                CoreAssignment(workload="test_odd_token"),
            ]
        )
        jobs = sweep_jobs(SweepSpec(workloads=["mcf", "milc"], num_uops=1500), engine)
        jobs += [
            JobSpec(trace=trace, variant="pre"),
            JobSpec(trace=recorded, variant="ooo"),
            JobSpec(trace=recorded, variant="pre", window=(200, 400), warmup_uops=100),
            JobSpec(workload="milc", num_uops=500, multicore=co_runners),
            JobSpec(workload="mcf", num_uops=500, probes=["stall_breakdown"]),
            JobSpec(
                workload="mcf",
                num_uops=500,
                config=engine.config.with_overrides(rob_size=64),
            ),
            JobSpec(workload="test_odd_token", variant="ooo", num_uops=300),
        ]
        payloads = engine.expand_job_payloads(jobs)
        for payload in payloads:
            assert job_cache_key(payload) == _reference_key(payload)
        assert len({job_cache_key(payload) for payload in payloads}) == len(payloads)
    finally:
        WORKLOAD_REGISTRY.unregister("test_odd_token")
