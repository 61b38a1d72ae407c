"""The failure formats and class lists that ``vfea.failures.FAILURES``
replaced, kept as the oracle the table is checked against
(tests/test_failures.py): ``memory.FAILURE_KINDS`` with the category and
lesson of each execution fault kind, ``classify_error``'s category,
``synthesis.reflect``, the preflight log line of a rejected attempt,
``FaultyGenerator.repair``'s lesson, the five report formats of
``harness._run_case``, and the exception classes ``cli.main`` turned into
exit 2 with their messages.

The perception classes that are now one family are known here by the name
each kind had; every other branch is as it was.
"""

from __future__ import annotations

from collections.abc import Iterable

from vfea.harness import CaseLoadError, CaseSpec, RunConfig
from vfea.memory import ERROR_CATEGORIES, MemoryPersistError
from vfea.perception import PerceptionError, PerceptionFailure, orchestrate
from vfea.sandbox import WorkspaceError
from vfea.simscript import Fault
from vfea.synthesis import ConfigError, SynthesisError, make_generator, synthesize

_ROOT_LESSON = "never delete the protected root model container"
_MODEL_LESSON = ("declare the full model before analysis and write results only "
                 "after a completed analysis")
_LOG_LESSON = "review the execution log and correct the failing statement"

FAILURE_KINDS: dict[str, tuple[str, str]] = {
    "parse": ("type_ii_hallucination",
              "use only statements documented for the simulation language; "
              "unknown statements fail to parse"),
    "lifecycle": ("type_i_lifecycle",
                  "every script must contain an analyze execution trigger, a "
                  "write_results statement and an end termination signal"),
    "safety": ("type_iii_unsafe_state", _ROOT_LESSON),
    "kernel-protection": ("type_iii_unsafe_state", _ROOT_LESSON),
    "isolation": ("other", "write all artifacts to paths inside the allocated task workspace"),
    "state": ("other", _MODEL_LESSON),
    "model": ("other", _MODEL_LESSON),
    "solver": ("other", "ensure the model is fully restrained and well posed before analysis"),
    "sandbox": ("other", _LOG_LESSON),
}
UNKNOWN_FAILURE = ("other", _LOG_LESSON)

# the perception classes by the kind of the family class that replaced them
PERCEPTION_CLASSES = {"drawing": "DrawingParseError", "scale": "ScaleConflictError",
                      "degenerate": "DegenerateElementError", "semantics": "SemanticsError"}
# the fault kinds of FaultyGenerator's fault families
FAULT_KINDS = {"type_i": "lifecycle", "type_ii": "parse", "type_iii": "safety"}


def category(kind: str | Iterable[str] | None) -> str:
    """``memory.classify_error``'s category of a failure kind or kinds."""
    kinds = (kind,) if isinstance(kind, str) else kind or ()
    return min((FAILURE_KINDS.get(k, UNKNOWN_FAILURE)[0] for k in kinds),
               key=ERROR_CATEGORIES.index, default="other")


def reflect(kinds: Iterable[str | None]) -> list[str]:
    return [FAILURE_KINDS.get(kind, UNKNOWN_FAILURE)[1] for kind in dict.fromkeys(kinds)]


def repair_lesson(fault: str) -> str:
    """The lesson whose presence makes ``FaultyGenerator(fault)`` repair."""
    return FAILURE_KINDS[FAULT_KINDS[fault]][1]


def preflight_log(faults: Iterable[Fault]) -> str:
    """The log of an attempt that parse or preflight rejected."""
    return "\n".join(
        f"preflight: {f.message}" if f.kind == "parse"
        else f"preflight[{f.kind}]{'' if f.line is None else f' line {f.line}'}: {f.message}"
        for f in faults)


def run_case_error(case: CaseSpec, config: RunConfig, buffer) -> str | None:
    """The error of ``run_case``'s report as ``_run_case`` wrote it by hand,
    for a case whose files load."""
    drawing_doc = case.drawing_path.read_text(encoding="utf-8")
    context_text = case.context_path.read_text(encoding="utf-8")
    try:
        model = orchestrate(drawing_doc, context_text)
    except PerceptionFailure as exc:
        return f"perception: {exc}"
    except PerceptionError as exc:
        return f"perception: {PERCEPTION_CLASSES[exc.kind]}: {exc}"
    if case.expected_mode is not None and model.analysis.mode != case.expected_mode:
        return (f"perception: perceived analysis mode {model.analysis.mode!r}, "
                f"expected {case.expected_mode!r}")
    try:
        synthesize(model, config.max_retries, buffer, make_generator(config.generator_spec),
                   config.resolved_workspace_root(), fallback_enabled=config.fallback_enabled,
                   limits=config.limits, task_id=case.case_id,
                   execution_mode=config.execution_mode)
    except SynthesisError as exc:
        if exc.kind == "exhausted":
            return f"synthesis: retry budget exhausted ({len(exc.trace.attempts)} attempts)"
        return f"synthesis: fallback failure: {exc}"
    return None


def cli_error(exc: BaseException) -> tuple[str, int] | None:
    """What ``cli.main`` printed to stderr, and the exit code, for an
    exception a command raised; None for one it let through."""
    if isinstance(exc, ConfigError):
        return f"configuration error: {exc}\n", 2
    if isinstance(exc, (CaseLoadError, OSError, UnicodeDecodeError, WorkspaceError,
                        MemoryPersistError)):
        return f"error: {exc}\n", 2
    return None
