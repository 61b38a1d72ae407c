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

from .ir import DEFAULT_VOLFRAC, AnalysisSpec, IRModel, serialize
from .memory import (FAILURE_KINDS, UNKNOWN_FAILURE, ExperienceBuffer,
                     ExperienceRecord, classify_error, compute_signature)
from .sandbox import (ExecutionOutcome, Limits, ResultsCorruptError,
                      ResultsMissingError, ResultSet, allocate_workspace,
                      execute, read_results)
from .simscript import Fault, ScriptParseError, lower_ir, parse_script, preflight
from .solver import ModalResult, StaticResult, TopoResult

DEFAULT_RETRIEVAL_K = 3
STATIC_RESIDUAL_LIMIT = 1e-8
VOLUME_SLACK = 1e-6
EXCERPT_CHARS = 400


class ConfigError(Exception):
    pass


class SynthesisExhaustedError(Exception):
    def __init__(self, trace: "SynthesisTrace"):
        self.trace = trace
        super().__init__(f"retry budget exhausted after {len(trace.attempts)} attempts")


class FallbackFailureError(Exception):
    """The guaranteed-executable path failed; this indicates a kernel bug."""

    def __init__(self, message: str, trace: "SynthesisTrace"):
        self.trace = trace
        super().__init__(message)


class Generator(Protocol):
    def generate(self, model: IRModel, memory_context: list[ExperienceRecord]) -> str: ...

    def repair(self, script: str, context: "DebugContext") -> str: ...


@dataclass(frozen=True)
class DebugContext:
    """What a repair sees of a failed attempt: the failure's category,
    message and line, the raw numbered log, and the failure table's lessons
    for its kinds."""
    category: str
    message: str
    line: int | None
    raw_log: str
    lessons: tuple[str, ...]


@dataclass
class Attempt:
    """One candidate script: the faults that rejected it before execution
    (parse or preflight), else the outcome of executing it."""
    k: int
    script: str
    rejected: tuple[Fault, ...] = ()
    outcome: ExecutionOutcome | None = None


@dataclass
class SynthesisTrace:
    attempts: list[Attempt] = field(default_factory=list)
    fallback_used: bool = False
    lessons_accumulated: list[str] = field(default_factory=list)


def reflect(kinds: Iterable[str | None]) -> list[str]:
    """One imperative lesson per distinct failure kind, from the failure
    table; ``None`` (no recorded fault) gives the generic lesson."""
    return [FAILURE_KINDS.get(kind, UNKNOWN_FAILURE)[1] for kind in dict.fromkeys(kinds)]


def verify_results(outcome: ExecutionOutcome, analysis: AnalysisSpec) -> ResultSet | None:
    """Physical acceptance of a completed run: readable results of the right
    kind (``read_results`` admits finite values only), and the mode-specific
    health checks. Returns the parsed results when they pass, else None."""
    if outcome.status != "COMPLETED" or outcome.results_path is None:
        return None
    try:
        rs = read_results(outcome.results_path)
    except (ResultsMissingError, ResultsCorruptError):
        return None
    expected = {"static": StaticResult, "modal": ModalResult,
                "topology_optimization": TopoResult}[analysis.mode]
    if not isinstance(rs, expected):
        return None
    if isinstance(rs, StaticResult):
        ok = rs.equilibrium_residual <= STATIC_RESIDUAL_LIMIT
    elif isinstance(rs, ModalResult):
        freqs = rs.frequencies_hz
        ok = (len(freqs) > 0 and all(f > 0 for f in freqs)
              and all(a <= b for a, b in zip(freqs, freqs[1:])))
    else:
        volfrac = analysis.opt_volume_fraction
        volfrac = DEFAULT_VOLFRAC if volfrac is None else volfrac
        ok = rs.final_volume_fraction <= volfrac + VOLUME_SLACK
    return rs if ok else None


def _excerpt(script: str) -> str:
    return script[:EXCERPT_CHARS]


def synthesize(model: IRModel, K: int, buffer: ExperienceBuffer, generator: Generator,
               workspace_root: str | Path, fallback_enabled: bool = True,
               limits: Limits | None = None, task_id: str = "task",
               execution_mode: str = "inprocess") -> tuple[str, ResultSet, SynthesisTrace]:
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
    guaranteed-executable, so a failure there raises FallbackFailureError.
    """
    if K < 0:
        raise ConfigError("retry budget must be >= 0")
    limits = limits or Limits()
    trace = SynthesisTrace()
    sig = compute_signature(model)

    def run(attempt: Attempt) -> ResultSet | None:
        """Pass one attempt through the gate: parse, preflight, allocate a
        workspace, execute, verify. The script is parsed once: preflight
        checks that program and execution runs it. Returns the verified
        results or None."""
        trace.attempts.append(attempt)
        try:
            program = parse_script(attempt.script)
        except ScriptParseError as exc:
            attempt.rejected = (exc.fault,)
            return None
        attempt.rejected = tuple(preflight(program, workspace_root))
        if attempt.rejected:
            return None
        attempt.outcome = execute(attempt.script, allocate_workspace(workspace_root, task_id),
                                  limits, mode=execution_mode, program=program)
        return verify_results(attempt.outcome, model.analysis)

    script = generator.generate(model, buffer.retrieve(sig, None, DEFAULT_RETRIEVAL_K))

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
        if attempt.outcome is None:
            faults = attempt.rejected
            log = "\n".join(
                f"preflight: {f.message}" if f.kind == "parse"
                else f"preflight[{f.kind}]{'' if f.line is None else f' line {f.line}'}: {f.message}"
                for f in faults)
        else:
            fault = attempt.outcome.runtime_error
            faults = () if fault is None else (fault,)
            log = attempt.outcome.log
        kinds = [f.kind for f in faults] or [None]
        message = ("; ".join(f.message for f in faults) or
                   f"execution {attempt.outcome.status.lower()} without readable results")
        err_sig = classify_error(kinds, message)
        line = faults[0].line if faults and faults[0].line is not None else err_sig.line
        ctx = DebugContext(err_sig.category, message, line, log, tuple(reflect(kinds)))
        buffer.record(ExperienceRecord(
            signature=sig, error=err_sig, lesson=ctx.lessons[0],
            script_excerpt=_excerpt(script), outcome="failure", created_at=time.time()))
        for text in ctx.lessons:
            if text not in trace.lessons_accumulated:
                trace.lessons_accumulated.append(text)
        script = generator.repair(script, ctx)

    if not fallback_enabled:
        raise SynthesisExhaustedError(trace)

    attempt = Attempt(k=K + 1, script=lower_ir(model))
    trace.fallback_used = True
    verified = run(attempt)
    if verified is None:
        outcome = attempt.outcome
        fault = attempt.rejected[0] if attempt.rejected else outcome.runtime_error
        raise FallbackFailureError(
            f"deterministic fallback failed with status "
            f"{outcome.status if outcome else 'REJECTED'}: "
            f"{fault.message if fault else 'unverified results'}", trace)
    return attempt.script, verified, trace


# --- generator implementations ---------------------------------------------


class PerfectGenerator:
    """Wraps the deterministic lowering; generation is always correct."""

    def generate(self, model: IRModel, memory_context: list[ExperienceRecord]) -> str:
        return lower_ir(model)

    def repair(self, script: str, context: DebugContext) -> str:
        return script


# fault family -> the failure kind it provokes
_FAULT_KINDS = {"type_i": "lifecycle", "type_ii": "parse", "type_iii": "safety"}


class FaultyGenerator:
    """Injects one failure family into otherwise-correct scripts.

    On repair the fault is removed iff the failure table's lesson for the
    kind it provokes is in the debug context; stubborn variants never heed
    lessons, which is how the handover path gets exercised.
    """

    def __init__(self, fault: str, stubborn: bool = False):
        if fault not in _FAULT_KINDS:
            raise ConfigError(f"unknown fault kind {fault!r}")
        self.fault = fault
        self.stubborn = stubborn
        self._clean: str | None = None

    def _inject(self, script: str) -> str:
        lines = script.splitlines()
        if self.fault == "type_i":
            lines = [l for l in lines if not l.startswith("analyze ")]
        elif self.fault == "type_ii":
            lines.insert(1, "mesh_edges part1")
        else:
            lines.insert(1, "delete model root")
        return "\n".join(lines) + "\n"

    def generate(self, model: IRModel, memory_context: list[ExperienceRecord]) -> str:
        self._clean = lower_ir(model)
        return self._inject(self._clean)

    def repair(self, script: str, context: DebugContext) -> str:
        if self.stubborn or self._clean is None:
            return script
        lesson = FAILURE_KINDS[_FAULT_KINDS[self.fault]][1]
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
        parts = spec.split(":")
        if len(parts) == 2:
            return FaultyGenerator(parts[1])
        if len(parts) == 3 and parts[2] == "stubborn":
            return FaultyGenerator(parts[1], stubborn=True)
        raise ConfigError(f"malformed generator spec {spec!r}")
    if spec.startswith("external:"):
        endpoint = spec.split(":", 1)[1]
        if not endpoint:
            raise ConfigError("external generator requires an endpoint url")
        return ExternalGenerator(endpoint)
    raise ConfigError(f"unknown generator spec {spec!r}")
