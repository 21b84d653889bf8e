"""Determinism sanitizer: simulation code must be bit-deterministic.

Everything downstream of the simulator assumes bit-determinism: the 30-cell
golden-digest suite, ``job_cache_key``'s content addressing (a re-run must
reproduce the cached cell exactly), parallel==serial sweep identity, and
sharded stitching.  One stray ``random.random()`` or wall-clock read inside
:data:`DETERMINISTIC_PACKAGES` silently poisons all of them, so this rule
forbids the nondeterminism sources statically:

* ``D101`` — the module-global ``random.*`` API (``random.random()``,
  ``random.shuffle`` ...) and unseeded ``random.Random()`` /
  ``random.SystemRandom``.  Seeded construction — ``random.Random(seed)`` —
  is the sanctioned pattern (see ``workloads/generators.py``).
* ``D102`` — ``from random import shuffle``-style imports that alias the
  global RNG into the module namespace where call sites can no longer be
  distinguished from seeded-instance methods.
* ``D103`` — wall-clock reads: ``time.time``/``time.monotonic`` (and their
  ``_ns`` twins) and ``datetime.now``/``utcnow``/``today``.
  ``time.perf_counter`` stays legal: measuring *how long* a simulation took
  (as the ``perfbench/`` benchmark does from outside the package) never
  feeds simulated state.
* ``D104`` — entropy sources: ``os.urandom``, ``uuid.uuid1``/``uuid4``,
  anything from ``secrets``.
* ``D105`` — ``id()``-keyed ordering (``sorted(xs, key=id)``): CPython
  addresses vary run to run, so any such order is nondeterministic.
* ``D106`` — iterating a set straight into ordered output (``for x in
  set(...)``, ``list(set(...))``, ``",".join(set(...))``): set iteration
  order depends on insertion history and hash seeds.  ``sorted(set(...))``
  is the fix and is not flagged.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.lint.engine import (
    LintRule,
    ModuleInfo,
    RepoIndex,
    qualname_map,
    register_lint_rule,
)
from repro.analysis.lint.findings import Finding

#: Subpackages whose code must be bit-deterministic.  ``repro.service`` and
#: the analysis/energy/report layers may read clocks (timeouts, logs); the
#: simulation core may not.
DETERMINISTIC_PACKAGES = frozenset(
    {"repro.uarch", "repro.core", "repro.memory", "repro.simulation", "repro.workloads"}
)

_WALL_CLOCK_TIME_ATTRS = frozenset(
    {"time", "time_ns", "monotonic", "monotonic_ns"}
)
_WALL_CLOCK_DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})
_ENTROPY = {
    ("os", "urandom"),
    ("uuid", "uuid1"),
    ("uuid", "uuid4"),
}
_SET_CONSUMERS = frozenset({"list", "tuple", "enumerate", "iter", "next"})


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, ast.Set) or isinstance(node, ast.SetComp):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


@register_lint_rule(
    "determinism",
    description="forbid unseeded RNG, wall clocks, entropy, id()-ordering and "
    "set-iteration order in simulation packages (D1xx)",
)
class DeterminismRule(LintRule):
    name = "determinism"

    def check_module(self, module: ModuleInfo, index: RepoIndex) -> Iterator[Finding]:
        if module.package not in DETERMINISTIC_PACKAGES:
            return
        symbols = qualname_map(module)

        def finding(node: ast.AST, code: str, message: str, detail: str) -> Finding:
            return Finding(
                rule=self.name,
                code=code,
                path=module.relpath,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                symbol=symbols.get(id(node), module.module),
                message=message,
                detail=detail,
            )

        for node in ast.walk(module.tree):
            # D101: module-global RNG / unseeded Random ---------------------
            if isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "random"
                ):
                    attr = func.attr
                    if attr == "Random":
                        if not node.args and not node.keywords:
                            yield finding(
                                node,
                                "D101",
                                "unseeded random.Random(): pass an explicit "
                                "seed (or accept an injected rng=)",
                                "random.Random",
                            )
                    elif attr == "SystemRandom":
                        yield finding(
                            node,
                            "D101",
                            "random.SystemRandom draws OS entropy and can "
                            "never be reproduced",
                            "random.SystemRandom",
                        )
                    else:
                        yield finding(
                            node,
                            "D101",
                            f"random.{attr}() uses the process-global RNG; "
                            "use a seeded random.Random instance",
                            f"random.{attr}",
                        )
                # D105: id()-keyed ordering ---------------------------------
                for keyword in node.keywords:
                    if (
                        keyword.arg == "key"
                        and isinstance(keyword.value, ast.Name)
                        and keyword.value.id == "id"
                    ):
                        yield finding(
                            node,
                            "D105",
                            "ordering by id() depends on allocation addresses "
                            "and differs run to run",
                            "key=id",
                        )
                # D103/D104: clocks and entropy -----------------------------
                if isinstance(func, ast.Attribute) and isinstance(
                    func.value, ast.Name
                ):
                    base, attr = func.value.id, func.attr
                    if base == "time" and attr in _WALL_CLOCK_TIME_ATTRS:
                        yield finding(
                            node,
                            "D103",
                            f"time.{attr}() reads the wall clock; simulation "
                            "state must derive only from its inputs",
                            f"time.{attr}",
                        )
                    elif base in ("datetime", "date") and attr in _WALL_CLOCK_DATETIME_ATTRS:
                        yield finding(
                            node,
                            "D103",
                            f"{base}.{attr}() reads the wall clock",
                            f"{base}.{attr}",
                        )
                    elif (base, attr) in _ENTROPY:
                        yield finding(
                            node,
                            "D104",
                            f"{base}.{attr}() is an entropy source",
                            f"{base}.{attr}",
                        )
                    elif base == "secrets":
                        yield finding(
                            node,
                            "D104",
                            f"secrets.{attr}() is an entropy source",
                            f"secrets.{attr}",
                        )
                # D106: consuming a set in order ----------------------------
                if (
                    isinstance(func, ast.Name)
                    and func.id in _SET_CONSUMERS
                    and node.args
                    and _is_set_expr(node.args[0])
                ):
                    yield finding(
                        node,
                        "D106",
                        f"{func.id}(set(...)) materialises set iteration "
                        "order; wrap in sorted(...)",
                        f"{func.id}(set)",
                    )
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr == "join"
                    and node.args
                    and _is_set_expr(node.args[0])
                ):
                    yield finding(
                        node,
                        "D106",
                        "str.join over a set materialises set iteration "
                        "order; wrap in sorted(...)",
                        "join(set)",
                    )
            # D102: from random import <global-RNG function> ----------------
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    for alias in node.names:
                        if alias.name not in ("Random",):
                            yield finding(
                                node,
                                "D102",
                                f"'from random import {alias.name}' aliases "
                                "the process-global RNG; import random.Random "
                                "and seed it instead",
                                f"from-random-import-{alias.name}",
                            )
                elif node.module == "time":
                    for alias in node.names:
                        if alias.name in _WALL_CLOCK_TIME_ATTRS:
                            yield finding(
                                node,
                                "D103",
                                f"'from time import {alias.name}' imports a "
                                "wall clock into a deterministic package",
                                f"from-time-import-{alias.name}",
                            )
            # D106: for-loop straight over a set ----------------------------
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                if _is_set_expr(node.iter):
                    yield finding(
                        node,
                        "D106",
                        "iterating a set directly; order depends on hashing "
                        "— iterate sorted(...) instead",
                        "for-in-set",
                    )
