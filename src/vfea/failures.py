"""Every way a case fails, one row per (stage, kind): the text it is
reported with, as a ``str.format`` template; the taxonomy category and
repair lesson of a failed synthesis attempt; and the CLI exit code. Each
public vfea exception names its row by its ``stage`` and ``kind``, and a
``simscript.Fault`` its kind at stage ``attempt``. docs/simscript.md shows
the table and what each stage's texts are formatted with.
"""

from __future__ import annotations

from typing import NamedTuple


class Failure(NamedTuple):
    """One row: report text, attempt category and lesson, CLI exit code. An
    attempt kind that only a run meets has no text: its log is the run's."""
    text: str | None
    category: str | None = None
    lesson: str | None = None
    exit_code: int = 1


_ROOT_LESSON = "never delete the protected root model container"
_MODEL_LESSON = ("declare the full model before analysis and write results only "
                 "after a completed analysis")
_LOG_LESSON = "review the execution log and correct the failing statement"


def _rejected(kind: str, category: str, lesson: str) -> Failure:
    return Failure(f"preflight[{kind}]{{1}}: {{0}}", category, lesson)


FAILURES: dict[tuple[str, str], Failure] = {
    ("load", "case"): Failure("error: {0}", exit_code=2),
    ("load", "input"): Failure("error: {0}", exit_code=2),
    ("load", "schema"): Failure("schema error: {0}", exit_code=2),
    ("load", "config"): Failure("configuration error: {0}", exit_code=2),
    ("load", "workspace"): Failure("error: {0}", exit_code=2),
    ("load", "memory"): Failure("error: {0}", exit_code=2),
    ("perception", "drawing"): Failure("perception: DrawingParseError: {0}"),
    ("perception", "scale"): Failure("perception: ScaleConflictError: {0}"),
    ("perception", "degenerate"): Failure("perception: DegenerateElementError: {0}"),
    ("perception", "semantics"): Failure("perception: SemanticsError: {0}"),
    ("perception", "audit"): Failure("perception: {0}"),
    ("perception", "mode"): Failure("perception: perceived analysis mode {0!r}, expected {1!r}"),
    ("attempt", "parse"): Failure(
        "preflight: {0}", "type_ii_hallucination",
        "use only statements documented for the simulation language; "
        "unknown statements fail to parse"),
    ("attempt", "lifecycle"): _rejected(
        "lifecycle", "type_i_lifecycle",
        "every script must contain an analyze execution trigger, a "
        "write_results statement and an end termination signal"),
    ("attempt", "safety"): _rejected("safety", "type_iii_unsafe_state", _ROOT_LESSON),
    ("attempt", "kernel-protection"): Failure(None, "type_iii_unsafe_state", _ROOT_LESSON),
    ("attempt", "isolation"): _rejected(
        "isolation", "other", "write all artifacts to paths inside the allocated task workspace"),
    ("attempt", "state"): Failure(None, "other", _MODEL_LESSON),
    ("attempt", "model"): Failure(None, "other", _MODEL_LESSON),
    ("attempt", "solver"): Failure(
        None, "other", "ensure the model is fully restrained and well posed before analysis"),
    ("attempt", "sandbox"): Failure(None, "other", _LOG_LESSON),
    ("attempt", "budget"): Failure(None, "other", _LOG_LESSON),
    ("attempt", "unverified"): Failure(None, "other", _LOG_LESSON),
    ("synthesis", "exhausted"): Failure("synthesis: retry budget exhausted ({1} attempts)"),
    ("synthesis", "fallback"): Failure("synthesis: fallback failure: {0}"),
}


def raised(exc: BaseException) -> tuple[str, str] | None:
    """The row an exception names: its own, the unreadable-input row for an
    OSError or UnicodeDecodeError, or None."""
    if isinstance(exc, (OSError, UnicodeDecodeError)):
        return ("load", "input")
    key = (getattr(exc, "stage", None), getattr(exc, "kind", None))
    return key if key in FAILURES else None
