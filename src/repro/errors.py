"""Shared error taxonomy and process exit codes.

The CLI historically collapsed every failure into ``sys.exit(1)``/``2``; with
the experiment service in the picture, callers (shell scripts, CI jobs, and
the HTTP layer) need to tell *whose fault* a failure was:

* **bad spec** — the submitted document/flags were malformed or referenced
  unknown registry names.  The input must change before a retry can succeed.
  CLI exit code :data:`EXIT_BAD_SPEC`; HTTP status 400.
* **simulation failure** — the spec was valid but executing it raised.  This
  is the simulator's (or environment's) fault, and a retry *might* succeed.
  CLI exit code :data:`EXIT_SIM_FAILURE`; HTTP status 500.
* **busy** — the service's admission queue is full; retry after a delay.
  CLI exit code :data:`EXIT_BUSY` (``EX_TEMPFAIL``); HTTP status 429.
* **interrupted** — SIGINT/SIGTERM arrived mid-run; outstanding work was
  cancelled and state flushed.  CLI exit code :data:`EXIT_INTERRUPTED`
  (the conventional ``128 + SIGINT``).

``repro lint`` gets its own code (:data:`EXIT_LINT_FINDINGS`): a
non-baselined finding is a failed assertion about the code under analysis,
distinct from the lint invocation itself being malformed (that stays
:data:`EXIT_BAD_SPEC`).
"""

from __future__ import annotations

#: Everything worked.
EXIT_OK = 0

#: The user's spec/flags/document were invalid (fix the input, then retry).
EXIT_BAD_SPEC = 2

#: A valid spec failed during simulation/execution (the run crashed).
EXIT_SIM_FAILURE = 3

#: ``repro lint`` found non-baselined findings.  This is a failed assertion
#: about the *code*, not a crash and not a bad spec: the diff (or the
#: committed baseline) must change before CI goes green again.
EXIT_LINT_FINDINGS = 4

#: The service refused admission because its queue is full (retry later);
#: matches BSD ``EX_TEMPFAIL``.
EXIT_BUSY = 75

#: SIGINT/SIGTERM cancelled the run (128 + SIGINT).
EXIT_INTERRUPTED = 130


class BadSpecError(ValueError):
    """A submitted spec/document/flag set is invalid (HTTP 400, exit 2)."""


class SimulationError(RuntimeError):
    """A valid job failed while executing (HTTP 500, exit 3)."""


class JobCancelled(BaseException):
    """Raised inside an engine run to abort it cooperatively.

    Derives from ``BaseException`` (like ``KeyboardInterrupt``) so ordinary
    ``except Exception`` recovery paths in simulation code cannot swallow a
    shutdown request; the engine's execution loop catches it explicitly,
    cancels outstanding work, and re-raises.
    """


class CellQuarantined(SimulationError):
    """A cell exhausted its fleet ``max_attempts`` and was parked.

    Raised by the fleet executor (:mod:`repro.service.fleet`) when one cell
    of a distributed job has crashed — or taken down its worker — on every
    allowed attempt.  The cell is *quarantined*: its last traceback is
    journaled and surfaced on the job record, and the job fails promptly
    instead of wedging the whole fleet on a poisoned input.  Like any
    :class:`SimulationError` it maps to HTTP 500 / exit code 3.
    """


__all__ = [
    "BadSpecError",
    "CellQuarantined",
    "EXIT_BAD_SPEC",
    "EXIT_BUSY",
    "EXIT_INTERRUPTED",
    "EXIT_LINT_FINDINGS",
    "EXIT_OK",
    "EXIT_SIM_FAILURE",
    "JobCancelled",
    "SimulationError",
]
