"""End-to-end tests for ``python -m repro lint`` and its CI contract."""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.__main__ import main
from repro.errors import EXIT_BAD_SPEC, EXIT_LINT_FINDINGS, EXIT_OK

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = REPO_ROOT / "src"


class TestLintSelfCheck:
    def test_repo_lints_clean_at_head(self, capsys):
        """The committed tree plus the committed baseline must be finding-free."""
        assert main(["lint"]) == EXIT_OK
        err = capsys.readouterr().err
        assert "0 finding(s)" in err

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == EXIT_OK
        out = capsys.readouterr().out
        for rule in (
            "determinism",
            "cache-schema",
            "hot-path",
            "exit-codes",
            "privacy",
            "probe-dispatch",
        ):
            assert rule in out

    def test_unknown_rule_is_bad_spec(self, capsys):
        assert main(["lint", "--rules", "nope"]) == EXIT_BAD_SPEC

    def test_rule_subset_runs(self, capsys):
        assert main(["lint", "--rules", "determinism,exit-codes"]) == EXIT_OK


class TestSeededViolation:
    """The CI contract: a planted violation must fail with a file:line finding."""

    def test_seeded_wall_clock_read_exits_with_lint_findings(self, capsys):
        seeded = SRC_DIR / "repro" / "uarch" / "_lint_seeded_scratch.py"
        seeded.write_text("import time\n\n\ndef stamp():\n    return time.time()\n")
        try:
            rc = main(["lint"])
            captured = capsys.readouterr()
        finally:
            seeded.unlink()
        assert rc == EXIT_LINT_FINDINGS
        assert "src/repro/uarch/_lint_seeded_scratch.py:5:" in captured.out
        assert "D103" in captured.out

    def test_json_format_reports_structured_findings(self, capsys):
        seeded = SRC_DIR / "repro" / "uarch" / "_lint_seeded_scratch.py"
        seeded.write_text("import random\n\nx = random.random()\n")
        try:
            rc = main(["lint", "--format", "json"])
            payload = json.loads(capsys.readouterr().out)
        finally:
            seeded.unlink()
        assert rc == EXIT_LINT_FINDINGS
        assert payload["suppressed"] > 0  # the grandfathered H301s
        (finding,) = payload["findings"]
        assert finding["code"] == "D101"
        assert finding["path"] == "src/repro/uarch/_lint_seeded_scratch.py"
        assert finding["line"] == 3


class TestBaselineWorkflow:
    def test_no_baseline_reports_grandfathered_findings(self, capsys):
        rc = main(["lint", "--no-baseline"])
        captured = capsys.readouterr()
        assert rc == EXIT_LINT_FINDINGS
        assert "H301" in captured.out  # the known unslotted hot-path classes

    def test_write_then_use_a_custom_baseline(self, tmp_path, capsys):
        custom = tmp_path / "baseline.json"
        assert main(["lint", "--write-baseline", "--baseline", str(custom)]) == EXIT_OK
        assert custom.is_file()
        capsys.readouterr()
        assert main(["lint", "--baseline", str(custom)]) == EXIT_OK
        assert "0 finding(s)" in capsys.readouterr().err


class TestImportIsolation:
    def test_simulator_import_does_not_load_lint(self):
        """Lint must cost the simulator nothing at import time.

        The dependency only points one way (lint -> simulator), so importing
        the simulation and uarch stacks must leave no ``repro.analysis.lint``
        module behind.
        """
        code = (
            "import sys\n"
            "import repro.simulation.engine, repro.uarch.core, repro.memory.hierarchy\n"
            "loaded = [m for m in sys.modules if m.startswith('repro.analysis.lint')]\n"
            "assert not loaded, f'lint modules loaded by simulator import: {loaded}'\n"
            "print('isolated')\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO_ROOT,
        )
        assert proc.returncode == 0, proc.stderr
        assert "isolated" in proc.stdout


class TestSchemaCaptureScript:
    def test_capture_script_is_idempotent_at_head(self):
        golden = REPO_ROOT / "tests" / "goldens" / "schema_fingerprint.json"
        before = golden.read_bytes()
        try:
            proc = subprocess.run(
                [sys.executable, str(REPO_ROOT / "scripts" / "capture_schema_fingerprint.py")],
                capture_output=True,
                text=True,
                cwd=REPO_ROOT,
            )
            assert proc.returncode == 0, proc.stderr
            assert "up to date" in proc.stdout
            assert golden.read_bytes() == before
        finally:
            # A stale golden makes the script rewrite it before the asserts
            # fail; put the committed bytes back so the next run fails too.
            if golden.read_bytes() != before:
                golden.write_bytes(before)
