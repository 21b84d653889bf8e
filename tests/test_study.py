"""Sensitivity-study subsystem: spec serde, expansion, caching, CLI, e2e."""

import json

import pytest

from repro.__main__ import main
from repro.memory.hierarchy import HierarchyConfig
from repro.simulation.engine import ExperimentEngine
from repro.simulation.study import (
    AxisPoint,
    STUDY_REGISTRY,
    StudyAxis,
    StudyResult,
    StudySpec,
    apply_hierarchy_overrides,
    build_study,
    run_study,
)

TINY_UOPS = 300


def tiny_spec(**overrides) -> StudySpec:
    defaults = dict(
        name="tiny",
        description="two-axis toy study",
        workloads=["mcf"],
        variants=["pre"],
        axes=[
            StudyAxis.core_field("rob_size", [128, 192]),
            StudyAxis.hierarchy_field("mshr_entries", [16, 32]),
        ],
        num_uops=TINY_UOPS,
    )
    defaults.update(overrides)
    return StudySpec(**defaults)


class TestStudySpecSerde:
    def test_round_trip_equality(self):
        spec = tiny_spec(base_core={"emq_entries": 384}, probes=["stall_breakdown"])
        assert StudySpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip(self):
        spec = tiny_spec()
        rebuilt = StudySpec.from_json(spec.to_json())
        assert rebuilt == spec
        # Axis points survive with their override payloads intact and typed.
        assert rebuilt.axes[0].points[0].core == {"rob_size": 128}
        assert isinstance(rebuilt.axes[0].points[0].core["rob_size"], int)

    def test_registered_specs_round_trip(self):
        for name in STUDY_REGISTRY.names():
            spec = build_study(name)
            assert StudySpec.from_dict(spec.to_dict()) == spec


class TestExpansion:
    def test_cartesian_product_shape_and_order(self):
        points = tiny_spec().expand()
        assert [p.coordinates for p in points] == [
            {"rob_size": "128", "mshr_entries": "16"},
            {"rob_size": "128", "mshr_entries": "32"},
            {"rob_size": "192", "mshr_entries": "16"},
            {"rob_size": "192", "mshr_entries": "32"},
        ]
        assert points[0].core_overrides == {"rob_size": 128}
        assert points[0].hierarchy_overrides == {"mshr_entries": 16}

    def test_expansion_is_deterministic(self):
        spec = tiny_spec()
        assert spec.expand() == spec.expand()

    def test_base_overrides_apply_to_every_point(self):
        spec = tiny_spec(base_core={"emq_entries": 384})
        for point in spec.expand():
            assert point.core_overrides["emq_entries"] == 384

    def test_conflicting_axes_rejected(self):
        spec = tiny_spec(
            axes=[
                StudyAxis.core_field("rob_size", [128]),
                StudyAxis(
                    name="window",
                    points=[AxisPoint(label="big", core={"rob_size": 384})],
                ),
            ]
        )
        with pytest.raises(ValueError, match="both override core field"):
            spec.expand()

    def test_no_axes_rejected(self):
        with pytest.raises(ValueError, match="declares no axes"):
            tiny_spec(axes=[]).expand()

    def test_typoed_core_field_is_a_clean_spec_error(self):
        spec = tiny_spec(axes=[StudyAxis.core_field("rob_sie", [128])])
        with pytest.raises(KeyError, match="unknown CoreConfig field"):
            spec.expand()
        with pytest.raises(KeyError, match="base_core"):
            tiny_spec(base_core={"warp_factor": 9}).expand()

    def test_unknown_names_rejected_early(self):
        with pytest.raises(KeyError, match="unknown workload"):
            tiny_spec(workloads=["not-a-benchmark"]).resolved_workloads()
        with pytest.raises(KeyError, match="unknown variant"):
            tiny_spec(variants=["warp-drive"]).resolved_variants()

    def test_baseline_always_included(self):
        assert tiny_spec().resolved_variants()[0] == "ooo"


class TestHierarchyOverrides:
    def test_flat_and_dotted_paths(self):
        base = HierarchyConfig()
        rebuilt = apply_hierarchy_overrides(
            base, {"mshr_entries": 8, "dram.controller_latency_cycles": 160}
        )
        assert rebuilt.mshr_entries == 8
        assert rebuilt.dram.controller_latency_cycles == 160
        # The base configuration is never mutated.
        assert base.mshr_entries == 32
        assert base.dram.controller_latency_cycles == 40

    def test_none_base_uses_defaults(self):
        rebuilt = apply_hierarchy_overrides(None, {"prefetcher": "stride"})
        assert rebuilt.prefetcher == "stride"
        assert rebuilt.mshr_entries == HierarchyConfig().mshr_entries

    def test_empty_overrides_return_base_unchanged(self):
        assert apply_hierarchy_overrides(None, {}) is None
        base = HierarchyConfig()
        assert apply_hierarchy_overrides(base, {}) is base

    def test_unknown_path_rejected(self):
        with pytest.raises(KeyError, match="unknown hierarchy override path"):
            apply_hierarchy_overrides(None, {"dram.warp_factor": 9})
        with pytest.raises(KeyError, match="unknown hierarchy override path"):
            apply_hierarchy_overrides(None, {"flux.capacitor": 1})


class TestStudyRegistry:
    def test_at_least_four_paper_studies(self):
        names = STUDY_REGISTRY.names()
        assert len(names) >= 4
        for expected in (
            "rob-scaling",
            "emq-sensitivity",
            "mshr-prefetch-interaction",
            "dram-latency",
        ):
            assert expected in names

    def test_every_registered_study_expands(self):
        for name in STUDY_REGISTRY.names():
            spec = build_study(name)
            assert spec.name == name
            assert spec.expand()
            spec.resolved_workloads()
            spec.resolved_variants()

    def test_build_study_narrowing(self):
        spec = build_study("rob-scaling", num_uops=123, workloads=["mcf"])
        assert spec.num_uops == 123
        assert spec.workloads == ["mcf"]
        # The registered spec itself is untouched.
        assert build_study("rob-scaling").num_uops != 123


class TestRunStudy:
    @pytest.fixture(scope="class")
    def study_cache(self, tmp_path_factory):
        return tmp_path_factory.mktemp("study-cache")

    @pytest.fixture(scope="class")
    def study_result(self, study_cache) -> StudyResult:
        spec = build_study("rob-scaling", num_uops=TINY_UOPS, workloads=["mcf"])
        engine = ExperimentEngine(cache_dir=study_cache)
        return run_study(spec, engine=engine)

    def test_one_point_per_rob_size(self, study_result):
        assert [p.point.coordinates["rob_size"] for p in study_result.points] == [
            "128", "192", "256", "384",
        ]

    def test_full_grid_per_point(self, study_result):
        variants = study_result.variants()
        assert variants[0] == "ooo"
        for point in study_result.points:
            assert point.comparison.benchmark_names() == ["mcf"]
            for bench in point.comparison.benchmarks:
                assert set(bench.results) == set(variants)

    def test_point_configs_actually_differ(self, study_result):
        configs = [
            point.comparison.benchmarks[0].results["pre"].config.rob_size
            for point in study_result.points
        ]
        assert configs == [128, 192, 256, 384]

    def test_accounting_covers_the_grid(self, study_result):
        expected = 4 * 1 * len(study_result.variants())
        assert study_result.total_jobs == expected
        assert study_result.simulated == expected
        assert study_result.cache_hits == 0

    def test_rerun_is_fully_cached(self, study_result, study_cache):
        # Same cache directory as the fixture's run: everything must hit.
        spec = build_study("rob-scaling", num_uops=TINY_UOPS, workloads=["mcf"])
        engine = ExperimentEngine(cache_dir=study_cache)
        again = run_study(spec, engine=engine)
        assert again.simulated == 0
        assert again.cache_hits == again.total_jobs == study_result.total_jobs
        # Cached results are bit-identical to the freshly simulated ones.
        assert [p.comparison.to_dict() for p in again.points] == [
            p.comparison.to_dict() for p in study_result.points
        ]

    def test_result_serde_round_trip(self, study_result):
        rebuilt = StudyResult.from_dict(study_result.to_dict())
        assert rebuilt.to_dict() == study_result.to_dict()

    def test_markdown_has_one_row_per_point(self, study_result):
        from repro.analysis.report import format_study_markdown

        text = format_study_markdown(study_result)
        for size in ("128", "192", "256", "384"):
            assert f"| {size} |" in text
        assert "**geomean**" in text
        assert "Δ% pre" in text

    def test_csv_rows_cover_every_cell(self, study_result):
        from repro.analysis.report import study_csv_rows

        rows = study_csv_rows(study_result)
        assert len(rows) == study_result.total_jobs
        assert {row["rob_size"] for row in rows} == {"128", "192", "256", "384"}
        for row in rows:
            assert row["ipc"] > 0
            if row["variant"] == "ooo":
                assert row["speedup_percent"] == 0.0


class TestStudyCLI:
    def test_list_and_quiet(self, capsys):
        assert main(["study", "list"]) == 0
        assert "rob-scaling" in capsys.readouterr().out
        assert main(["study", "list", "--quiet"]) == 0
        names = capsys.readouterr().out.split()
        assert names == STUDY_REGISTRY.names()

    def test_run_report_round_trip(self, tmp_path, capsys):
        output = tmp_path / "study.json"
        csv_path = tmp_path / "study.csv"
        code = main([
            "study", "run", "rob-scaling",
            "--uops", str(TINY_UOPS), "--workloads", "mcf",
            "--cache-dir", str(tmp_path / "cache"),
            "--output", str(output), "--csv", str(csv_path),
        ])
        assert code == 0
        run_out = capsys.readouterr().out
        assert "## Study: rob-scaling" in run_out
        assert csv_path.exists()
        with output.open() as handle:
            saved = StudyResult.from_dict(json.load(handle))
        assert len(saved.points) == 4
        assert main(["study", "report", str(output)]) == 0
        assert "## Study: rob-scaling" in capsys.readouterr().out

    def test_unknown_study_is_a_clean_error(self, capsys):
        assert main(["study", "run", "warp-drive"]) == 2
        assert "unknown study" in capsys.readouterr().err

    def test_non_positive_uops_is_a_clean_error(self, capsys):
        code = main(["study", "run", "rob-scaling", "--uops", "0", "--workloads", "mcf"])
        assert code == 2
        assert "num_uops must be positive" in capsys.readouterr().err
