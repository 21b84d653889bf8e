"""Golden bit-identity regression suite.

The hot-path overhaul (``__slots__`` micro-ops/instructions, allocation-free
L1 hits, heap-expired MSHRs, batched trace decode, de-overheaded stage loops)
claims *bit-identical timing*.  This suite is the proof: the committed golden
file ``tests/goldens/golden_stats.json`` was captured with the
pre-optimization engine (see ``scripts/capture_goldens.py``), and every cell
of the default Figure-2 workload x variant matrix must still reproduce its
``CoreStats`` digest, IPC and normalized IPC exactly.

A second group pins the batched ``FileTraceSource`` decoder against both the
in-memory stream and the original per-record reference decoder.
"""

from __future__ import annotations

import gzip
from pathlib import Path

import pytest

from repro.registry import build_workload, build_workload_source
from repro.simulation.engine import ExperimentEngine, SweepSpec
from repro.simulation.golden import (
    DEFAULT_GOLDEN_PATH,
    cell_key,
    compare_with_goldens,
    load_goldens,
    stats_digest,
)
from repro.uarch.stats import CoreStats
from repro.workloads.source import (
    FileTraceSource,
    _decode_uop,
    write_trace_file,
)
from repro.workloads.trace import MicroOp, Trace, UopClass

GOLDEN_FILE = Path(__file__).resolve().parent.parent / DEFAULT_GOLDEN_PATH


@pytest.fixture(scope="module")
def goldens():
    assert GOLDEN_FILE.exists(), (
        f"{GOLDEN_FILE} is missing; regenerate with "
        "`PYTHONPATH=src python scripts/capture_goldens.py` "
        "(only when the timing model intentionally changed)"
    )
    return load_goldens(GOLDEN_FILE)


class TestGoldenDigests:
    def test_golden_file_covers_the_full_matrix(self, goldens):
        expected = {
            cell_key(workload, variant)
            for workload in goldens["workloads"]
            for variant in goldens["variants"]
        }
        assert set(goldens["cells"]) == expected
        assert len(expected) == len(goldens["workloads"]) * len(goldens["variants"])
        for cell in goldens["cells"].values():
            assert len(cell["digest"]) == 64  # sha256 hex

    def test_optimized_engine_is_bit_identical_to_goldens(self, goldens):
        """The load-bearing assertion: every workload x variant reproduces the
        pre-optimization CoreStats digest and Figure-2 IPC values exactly."""
        mismatches = compare_with_goldens(goldens)
        assert mismatches == [], "timing diverged from committed goldens:\n" + "\n".join(
            mismatches
        )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_engine_sweep_on_reused_traces_is_bit_identical(self, goldens, workers):
        """A workload-named sweep runs all five variants of a workload on the
        trace its process built once, each reading it through its own cursor,
        and still reproduces every golden digest."""
        spec = SweepSpec(
            workloads=["mcf", "bwaves"],
            variants=list(goldens["variants"]),
            num_uops=goldens["num_uops"],
        )
        comparison = ExperimentEngine(workers=workers).run_sweep(spec).comparison
        for bench in comparison.benchmarks:
            for variant, result in bench.results.items():
                golden = goldens["cells"][cell_key(bench.benchmark, variant)]
                digest = stats_digest(result.stats)
                assert digest == golden["digest"], (bench.benchmark, variant)

    def test_digest_is_sensitive_to_any_counter(self):
        stats = CoreStats()
        base = stats_digest(stats)
        stats.cycles += 1
        assert stats_digest(stats) != base
        stats.cycles -= 1
        assert stats_digest(stats) == base
        stats.events.iq_wakeups += 1
        assert stats_digest(stats) != base


def _all_shapes_trace() -> Trace:
    return Trace(
        [
            MicroOp(pc=0x1000, uop_class=UopClass.IALU, srcs=(1, 2), dst=3),
            MicroOp(pc=0x1004, uop_class=UopClass.FMUL, srcs=(34, 35), dst=36),
            MicroOp(
                pc=0x1008, uop_class=UopClass.LOAD, srcs=(3,), dst=4,
                mem_addr=0xDEAD_BEEF_00, mem_size=16,
            ),
            MicroOp(
                pc=0x100C, uop_class=UopClass.STORE, srcs=(4,),
                mem_addr=0x2040, mem_size=4,
            ),
            MicroOp(
                pc=0x1010, uop_class=UopClass.BRANCH, srcs=(5,),
                branch_taken=True, branch_target=0x1000,
            ),
            MicroOp(pc=0x1014, uop_class=UopClass.BRANCH, branch_taken=False),
            MicroOp(pc=0x1018, uop_class=UopClass.NOP),
        ],
        name="shapes",
    )


class TestBatchedDecoderIdentity:
    def test_file_decode_matches_streaming_source(self, tmp_path):
        """A recorded workload replays byte-for-byte identical to its
        streaming generator source through the batched block decoder."""
        source = build_workload_source("milc", num_uops=900)
        path = tmp_path / "milc.trc"
        write_trace_file(path, source)
        assert list(FileTraceSource(path)) == list(source.open())

    def test_block_decoder_matches_reference_decoder(self, tmp_path):
        """The chunked ``unpack_from`` decoder and the original per-record
        ``_decode_uop`` reference produce identical micro-ops."""
        trace = _all_shapes_trace().repeat(50, name="shapes50")
        path = tmp_path / "shapes.trc"
        count = write_trace_file(path, trace)
        batched = list(FileTraceSource(path))
        with open(path, "rb") as handle:
            handle.readline(1 << 16)
            with gzip.GzipFile(fileobj=handle, mode="rb") as stream:
                reference = [_decode_uop(stream) for _ in range(count)]
        assert batched == reference == list(trace)

    def test_reopen_is_deterministic(self, tmp_path):
        path = tmp_path / "mcf.trc"
        write_trace_file(path, build_workload("mcf", num_uops=400))
        source = FileTraceSource(path)
        assert list(source) == list(source)
