"""Reflexive script synthesis: generate, preflight, execute, reflect, repair,
and hand over to the deterministic lowering when the retry budget runs out.

Generators sit behind one two-operation interface (generate/repair); the
shipped implementations are the perfect mock (wraps the lowering), fault
injectors for each failure family, and an HTTP client for an external
generation service.
"""

from __future__ import annotations

import http.client
import json
import time
import urllib.request
from dataclasses import dataclass, field
from collections.abc import Iterable
from pathlib import Path
from typing import Protocol

from .certify import CHECKS
from .failures import FAILURES
from .ir import IRModel, serialize
from .memory import ExperienceBuffer, ExperienceRecord, classify_error, compute_signature
from .sandbox import (_RESULT_KINDS, ExecutionOutcome, Limits, ResultsError,
                      allocate_workspace, execute, read_results)
from .simscript import Fault, ScriptParseError, lower_ir, parse_script, preflight
from .solver import ANALYSES

DEFAULT_RETRIEVAL_K = 3
EXCERPT_CHARS = 400


class ConfigError(Exception):
    stage, kind = "load", "config"


class SynthesisError(Exception):
    """No attempt was verified: the retry budget ran out (``exhausted``), or
    the guaranteed-executable path failed too (``fallback``), which indicates
    a kernel bug. Carries the trace, and the script line the last failed
    attempt was blamed on as ``line N``, if any."""
    stage = "synthesis"

    def __init__(self, kind: str, message: str, trace: "SynthesisTrace",
                 subject: str | None = None):
        super().__init__(message)
        self.kind, self.trace, self.subject = kind, trace, subject


class Generator(Protocol):
    def generate(self, model: IRModel, memory_context: list[ExperienceRecord]) -> str: ...

    def repair(self, script: str, context: "DebugContext") -> str: ...


@dataclass(frozen=True)
class DebugContext:
    """What a repair sees of a failed attempt: the failure's category and
    message, its first fault's line, the raw numbered log, and the failure
    table's lessons for its kinds."""
    category: str
    message: str
    line: int | None
    raw_log: str
    lessons: tuple[str, ...]


@dataclass
class Attempt:
    """One candidate script, the outcome of executing it if it ran, and why
    it failed: the faults parse or preflight found, the fault its run ended
    in, or an ``unverified`` one for a completed run whose results fail
    verification. A verified attempt has no faults."""
    k: int
    script: str
    faults: tuple[Fault, ...] = ()
    outcome: ExecutionOutcome | None = None


@dataclass
class SynthesisTrace:
    attempts: list[Attempt] = field(default_factory=list)
    fallback_used: bool = False
    lessons_accumulated: list[str] = field(default_factory=list)


def reflect(kinds: Iterable[str]) -> list[str]:
    """One imperative lesson per distinct failure kind, from its attempt row
    of ``failures.FAILURES``."""
    return [FAILURES["attempt", kind].lesson for kind in dict.fromkeys(kinds)]


def verify_results(outcome: ExecutionOutcome, model: IRModel):
    """Physical acceptance of a completed run of the audited model: readable
    results (finite ones only) of its mode's result class that pass the mode's
    check in ``certify.CHECKS``. Returns them, or raises ResultsError naming the
    status of a run that did not complete, or the results path and ``read_results``'
    defect, another mode's result kind or the check's failed condition."""
    if outcome.status != "COMPLETED" or outcome.results_path is None:
        raise ResultsError(f"no results of a {outcome.status} run")
    mode = model.analysis.mode
    rs, row = read_results(outcome.results_path), ANALYSES[mode]
    why = (CHECKS[mode](rs, model) if isinstance(rs, row.result)
           else f"{_RESULT_KINDS[type(rs)]} results, expected {row.kind}")
    if why:
        raise ResultsError(f"{outcome.results_path}: {why}")
    return rs


def _excerpt(script: str) -> str:
    return script[:EXCERPT_CHARS]


def synthesize(model: IRModel, K: int, buffer: ExperienceBuffer, generator: Generator,
               workspace_root: str | Path, fallback_enabled: bool = True,
               limits: Limits | None = None, task_id: str = "task",
               execution_mode: str = "inprocess") -> tuple[str, object, SynthesisTrace]:
    """Run the reflexive synthesis loop for one audited model.

    Every attempt passes one gate: parse, preflight, allocate a fresh
    workspace, execute, verify. Attempts k = 0..K are generated: a script
    that parse or preflight rejects is reflected into lessons and repaired
    without touching the sandbox, a verified one is indexed into the replay
    buffer, and every failed attempt, rejected or executed, is recorded there
    as a failure. The buffer is read once, for the generation request; a
    repair sees the failure at hand and the failure table's lessons for its
    kinds. When the budget is exhausted the deterministic lowering
    takes over (if enabled) through the same gate; its output is
    guaranteed-executable, so a failure there raises SynthesisError.
    """
    if K < 0:
        raise ConfigError("retry budget must be >= 0")
    limits = limits or Limits()
    trace = SynthesisTrace()
    sig = compute_signature(model)

    def run(attempt: Attempt):
        """Pass one attempt through the gate: parse, preflight, allocate a
        workspace, execute, verify. The script is parsed once: preflight
        checks that program and execution runs it. Returns the verified
        results, or None with the attempt's faults set."""
        trace.attempts.append(attempt)
        try:
            program = parse_script(attempt.script)
            attempt.faults = tuple(preflight(program))
            if not attempt.faults:
                attempt.outcome = execute(
                    attempt.script, allocate_workspace(workspace_root, task_id), limits,
                    mode=execution_mode, program=program)
                return verify_results(attempt.outcome, model)
        except ScriptParseError as exc:
            attempt.faults = (exc.fault,)
        except ResultsError as exc:  # a run that did not complete keeps its own fault
            attempt.faults = (attempt.outcome.runtime_error or Fault("unverified", None, str(exc)),)
        return None

    script = generator.generate(model, buffer.retrieve(sig, DEFAULT_RETRIEVAL_K))

    for k in range(K + 1):
        attempt = Attempt(k=k, script=script)
        verified = run(attempt)
        if verified is not None:
            buffer.record(ExperienceRecord(
                signature=sig, error=None,
                lesson=f"verified {model.analysis.mode} script for this structure family",
                script_excerpt=_excerpt(script), outcome="success", created_at=time.time()))
            return script, verified, trace

        # classify and reflect the failure, record it, and repair
        faults = attempt.faults
        if attempt.outcome is None:
            log = "\n".join(FAILURES["attempt", f.kind].text.format(
                f.message, "" if f.line is None else f" line {f.line}") for f in faults)
        else:
            log = attempt.outcome.log
        kinds = [f.kind for f in faults]
        message = "; ".join(f.message for f in faults)
        err_sig = classify_error(kinds, message, faults[0].line)
        ctx = DebugContext(err_sig.category, message, err_sig.line, log, tuple(reflect(kinds)))
        buffer.record(ExperienceRecord(
            signature=sig, error=err_sig, lesson=ctx.lessons[0],
            script_excerpt=_excerpt(script), outcome="failure", created_at=time.time()))
        for text in ctx.lessons:
            if text not in trace.lessons_accumulated:
                trace.lessons_accumulated.append(text)
        script = generator.repair(script, ctx)

    if not fallback_enabled:
        raise SynthesisError(
            "exhausted", f"retry budget exhausted after {len(trace.attempts)} attempts", trace,
            _at(ctx.line))

    attempt = Attempt(k=K + 1, script=lower_ir(model))
    trace.fallback_used = True
    verified = run(attempt)
    if verified is None:
        fault = attempt.faults[0]
        raise SynthesisError(
            "fallback", f"deterministic fallback failed with status "
            f"{attempt.outcome.status if attempt.outcome else 'REJECTED'}: {fault.message}",
            trace, _at(fault.line))
    return attempt.script, verified, trace


def _at(line: int | None) -> str | None:
    return None if line is None else f"line {line}"


# --- generator implementations ---------------------------------------------


class PerfectGenerator:
    """Wraps the deterministic lowering; generation is always correct."""

    def generate(self, model: IRModel, memory_context: list[ExperienceRecord]) -> str:
        return lower_ir(model)

    def repair(self, script: str, context: DebugContext) -> str:
        return script


# fault family -> the failure kind it provokes, and how it breaks a script's lines
_FAULTS = {
    "type_i": ("lifecycle", lambda lines: [l for l in lines if not l.startswith("analyze ")]),
    "type_ii": ("parse", lambda lines: lines[:1] + ["mesh_edges part1"] + lines[1:]),
    "type_iii": ("safety", lambda lines: lines[:1] + ["delete model root"] + lines[1:]),
}


class FaultyGenerator:
    """Injects one failure family into otherwise-correct scripts.

    On repair the fault is removed iff the failure table's lesson for the
    kind it provokes is in the debug context; stubborn variants never heed
    lessons, which is how the handover path gets exercised.
    """

    def __init__(self, fault: str, stubborn: bool = False):
        if fault not in _FAULTS:
            raise ConfigError(f"unknown fault kind {fault!r}")
        self.fault = fault
        self.stubborn = stubborn
        self._clean: str | None = None

    def _inject(self, script: str) -> str:
        return "\n".join(_FAULTS[self.fault][1](script.splitlines())) + "\n"

    def generate(self, model: IRModel, memory_context: list[ExperienceRecord]) -> str:
        self._clean = lower_ir(model)
        return self._inject(self._clean)

    def repair(self, script: str, context: DebugContext) -> str:
        if self.stubborn or self._clean is None:
            return script
        lesson = FAILURES["attempt", _FAULTS[self.fault][0]].lesson
        return self._clean if lesson in context.lessons else script


class ExternalGenerator:
    """HTTP client for an external generation endpoint.

    Request body: {"ir_document": str, "memory_lessons": [str],
    "debug_context": null | {"error": {...}, "raw_log": str,
    "lessons": [str], "script": str}}. Response body: {"script": str}.
    A repair request repeats the document and memory lessons of the last
    generate request.
    """

    def __init__(self, endpoint: str, timeout: float = 30.0, retries: int = 2):
        self.endpoint = endpoint
        self.timeout = timeout
        self.retries = retries
        self._task: dict = {"ir_document": "", "memory_lessons": []}

    def _post(self, body: dict) -> str:
        request = urllib.request.Request(self.endpoint, data=json.dumps(body).encode("utf-8"),
                                         headers={"Content-Type": "application/json"})
        last_exc: Exception | None = None
        for _ in range(self.retries + 1):
            try:
                # urlopen raises HTTPError on 4xx/5xx responses
                with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                    payload = json.loads(resp.read())
            except (OSError, ValueError, http.client.HTTPException) as exc:
                last_exc = exc
                continue
            if not isinstance(payload, dict) or "script" not in payload:
                raise ConfigError("external generator response missing 'script'")
            return str(payload["script"])
        raise ConfigError(f"external generator unreachable at {self.endpoint}: {last_exc}")

    def generate(self, model: IRModel, memory_context: list[ExperienceRecord]) -> str:
        self._task = {"ir_document": serialize(model),
                      "memory_lessons": [r.lesson for r in memory_context if r.lesson]}
        return self._post({**self._task, "debug_context": None})

    def repair(self, script: str, context: DebugContext) -> str:
        return self._post({**self._task, "debug_context": {
            "error": {"category": context.category, "message": context.message,
                      "line": context.line},
            "raw_log": context.raw_log,
            "lessons": list(context.lessons),
            "script": script,
        }})


def make_generator(spec: str) -> Generator:
    """Build a generator from its config string.

    Accepted: ``perfect``, ``faulty:type_i|type_ii|type_iii`` with an optional
    ``:stubborn`` suffix, and ``external:<endpoint-url>``.
    """
    if spec == "perfect":
        return PerfectGenerator()
    if spec.startswith("faulty:"):
        _, fault, *suffix = spec.split(":")
        if suffix in ([], ["stubborn"]):
            return FaultyGenerator(fault, stubborn=bool(suffix))
        raise ConfigError(f"malformed generator spec {spec!r}")
    if spec.startswith("external:"):
        endpoint = spec.split(":", 1)[1]
        if not endpoint:
            raise ConfigError("external generator requires an endpoint url")
        return ExternalGenerator(endpoint)
    raise ConfigError(f"unknown generator spec {spec!r}")
