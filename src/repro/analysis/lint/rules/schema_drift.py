"""Cache-schema drift gate: dataclass shape changes require a version bump.

``job_cache_key`` content-addresses results by hashing the serde payload of
the cache-key-visible dataclasses (:data:`repro.analysis.lint.schema.SCHEMA_ROOTS`
and everything nested under them).  Editing a field on any of those classes
changes which cached results a spec maps to — stale hits or silent misses —
unless ``CACHE_SCHEMA_VERSION`` is bumped, which invalidates the cache
wholesale.

This repo-level rule compares the *live* structural fingerprint (derived at
lint time from the imported dataclasses) against the committed golden:

* ``S201`` — the structure drifted but ``CACHE_SCHEMA_VERSION`` did not move:
  the forbidden state.  The finding lists the per-class field diffs.
* ``S202`` — ``CACHE_SCHEMA_VERSION`` was bumped but the golden still records
  the old version: refresh it with ``scripts/capture_schema_fingerprint.py``.
* ``S203`` — the golden file is missing entirely.

The matching happy paths: identical fingerprint + identical version → silent;
bumped version + refreshed golden → silent.
"""

from __future__ import annotations

import json
from typing import Iterator

from repro.analysis.lint.engine import LintRule, RepoIndex, register_lint_rule
from repro.analysis.lint.findings import Finding
from repro.analysis.lint.schema import (
    GOLDEN_RELPATH,
    current_record,
    diff_structures,
)


@register_lint_rule(
    "cache-schema",
    description="fail when cache-key-visible dataclasses drift without a "
    "CACHE_SCHEMA_VERSION bump (S2xx)",
)
class CacheSchemaRule(LintRule):
    name = "cache-schema"

    def check_repo(self, index: RepoIndex) -> Iterator[Finding]:
        golden_path = index.root / GOLDEN_RELPATH
        live = current_record()
        if not golden_path.is_file():
            yield Finding(
                rule=self.name,
                code="S203",
                path=GOLDEN_RELPATH,
                line=1,
                col=0,
                symbol="schema_fingerprint",
                message="schema fingerprint golden is missing; run "
                "scripts/capture_schema_fingerprint.py and commit the result",
                detail="missing-golden",
            )
            return
        stored = json.loads(golden_path.read_text(encoding="utf-8"))
        if stored.get("cache_schema_version") != live["cache_schema_version"]:
            if stored.get("fingerprint") == live["fingerprint"]:
                return  # version bumped defensively with no structural change
            yield Finding(
                rule=self.name,
                code="S202",
                path=GOLDEN_RELPATH,
                line=1,
                col=0,
                symbol="schema_fingerprint",
                message=(
                    "CACHE_SCHEMA_VERSION moved "
                    f"({stored.get('cache_schema_version')} -> "
                    f"{live['cache_schema_version']}) but the golden was not "
                    "refreshed; run scripts/capture_schema_fingerprint.py"
                ),
                detail="stale-golden",
            )
            return
        if stored.get("fingerprint") == live["fingerprint"]:
            return
        diffs = diff_structures(stored.get("classes", {}), live["classes"])
        # One finding per drifted class: reviewable granularity, and each
        # class-level drift has a stable baseline key (not that these should
        # ever be baselined).
        for diff in diffs:
            class_name, _, rest = diff.partition(": ")
            yield Finding(
                rule=self.name,
                code="S201",
                path=GOLDEN_RELPATH,
                line=1,
                col=0,
                symbol=class_name,
                message=(
                    f"cache-key schema drift without a CACHE_SCHEMA_VERSION "
                    f"bump: {diff} — bump CACHE_SCHEMA_VERSION in "
                    "repro/simulation/engine.py, then refresh the golden with "
                    "scripts/capture_schema_fingerprint.py"
                ),
                detail="drift",
            )
        if not diffs:
            # Fingerprint differs but no class-level diff (e.g. a type
            # rendering change): still a drift, report it once.
            yield Finding(
                rule=self.name,
                code="S201",
                path=GOLDEN_RELPATH,
                line=1,
                col=0,
                symbol="schema_fingerprint",
                message="cache-key schema fingerprint drifted without a "
                "CACHE_SCHEMA_VERSION bump",
                detail="drift",
            )
