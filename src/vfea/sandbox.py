"""Run isolation: per-task workspaces, the script interpreter with a protected
kernel and resource budget, and the results-database reader/writer.

The interpreter runs in-process but honors the same observable contract as a
subprocess runner: every artifact lands strictly under the workspace root,
the log records each executed statement with its source line, and the final
log line is always ``STATUS: COMPLETED|FAILED|ABORTED``.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
import time
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from pathlib import Path

from .ir import (COLLECTIONS, AnalysisSpec, Element, IRModel, Node, _Defect, _Field, _array,
                 _expected, _finite, _id_map, _read_json, _record, _text, _to_doc)
from .simscript import (PROTECTED_ROOT, Analyze, Declare, Delete, End, Entity, Fault,
                        ModelBegin, ScriptAST, ScriptParseError, WorkspaceStmt, WriteResults,
                        parse_script)
from .solver import (ANALYSES, ModalResult, SolverError, StaticResult, TopoResult, free_dofs,
                     solved_dofs)
from .validation import check_l1

SCRIPT_FILENAME = "script.sim"
LOG_FILENAME = "run.log"
# Modes one modal analysis may compute, min(count, free dofs): the Lanczos
# basis holds about twice that many vectors of the model's dofs, and the
# dense path taken when the count reaches the free dofs is cubic in them.
MAX_MODES = 100
# Iterations one topology optimisation may run, each a full factorisation:
# an in-process run cannot be stopped once started, so the count is checked
# before it starts. At the default dof budget an iteration takes ~0.2 s, so
# 200 of them fit the default 60-s wall-time budget.
MAX_OC_ITERATIONS = 200
# The limit of each unit of budgeted solver work; a run without any does none
_WORK_LIMITS = {"mode": MAX_MODES, "iteration": MAX_OC_ITERATIONS, None: 0}

_alloc_counter = itertools.count(1)
# The directory that holds the vfea package, first on the child's import path.
_PACKAGE_PARENT = str(Path(__file__).resolve().parent.parent)


class WorkspaceError(Exception):
    stage, kind = "load", "workspace"


class ResultsError(Exception):
    """Why a run's results fail verification: a missing or corrupt file, or a failed check."""
    stage, kind = "attempt", "unverified"


@dataclass(frozen=True)
class Limits:
    max_statements: int = 10_000
    max_solver_dofs: int = 20_000
    max_wall_time: float = 60.0

    def __post_init__(self):
        # a NaN budget would switch its check off, and a fraction or an infinity crash it
        if not (all(type(n) is int and n >= 1 for n in (self.max_statements, self.max_solver_dofs))
                and type(self.max_wall_time) in (int, float)
                and 0 < self.max_wall_time <= sys.float_info.max):
            raise ValueError(f"budgets must be counts >= 1 and a finite wall time > 0: {self}")


@dataclass(frozen=True)
class ExecutionOutcome:
    """``runtime_error`` is the fault that stopped the run: of kind ``budget``
    when it ABORTED, of another kind when it FAILED, None when it COMPLETED."""
    status: str  # COMPLETED | FAILED | ABORTED
    results_path: Path | None
    log: str
    runtime_error: Fault | None


def _is_file_name(name: str) -> bool:
    """Whether ``name`` can name a file of its own: it is not empty, ``.`` or
    ``..``, and holds no path separator, NUL or character that UTF-8 cannot
    encode (a lone surrogate)."""
    try:
        name.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return name not in ("", ".", "..") and not {"\0", os.sep, os.altsep} & set(name)


def allocate_workspace(root_dir: str | Path, task_id: str) -> Path:
    """Create a fresh, empty, never-reused directory for one task run."""
    root_dir = Path(root_dir)
    if not _is_file_name(task_id):
        raise WorkspaceError(f"invalid task id {task_id!r}")
    try:
        root_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise WorkspaceError(f"workspace root {root_dir} is not writable: {exc}") from None
    for _ in range(1_000_000):
        suffix = next(_alloc_counter)
        candidate = root_dir / f"{task_id}-{suffix:04d}"
        try:
            candidate.mkdir(exist_ok=False)
        except FileExistsError:
            continue
        except OSError as exc:
            raise WorkspaceError(f"cannot create workspace under {root_dir}: {exc}") from None
        return candidate
    raise WorkspaceError("workspace suffix space exhausted")


_numbers = _array(_finite)
_triples = _id_map(_array(_finite, 3, "components"))

# One record kind per analysis mode's result class, tagged in the document by
# the mode's ``result_kind``, each field in the documented key order
# (docs/artifacts.md). Every number must be finite.
_RESULTS: dict[type, tuple[_Field, ...]] = {
    StaticResult: (_Field("displacements", "displacements", _triples),
                   _Field("reactions", "reactions", _triples),
                   _Field("axial_force", "axial_force", _id_map(_finite)),
                   _Field("axial_stress", "axial_stress", _id_map(_finite)),
                   _Field("frame_end_forces", "frame_end_forces", _id_map(_numbers)),
                   _Field("equilibrium_residual", "equilibrium_residual", _finite)),
    ModalResult: (_Field("frequencies_hz", "frequencies_hz", _numbers),
                  _Field("mode_shapes", "mode_shapes", _array(_triples)),
                  _Field("note", "note", _text, required=False)),
    TopoResult: (_Field("areas", "areas", _id_map(_finite)),
                 _Field("compliance_history", "compliance_history", _numbers),
                 _Field("final_volume_fraction", "final_volume_fraction", _finite)),
}
_RESULT_KINDS = {a.result: a.kind for a in ANALYSES.values()}
_RESULT_READERS = {a.kind: _record(_RESULTS, a.result) for a in ANALYSES.values()}


def _read_result_set(doc):
    if not isinstance(doc, dict):
        raise _expected("object", doc)
    fields = dict(doc)
    tag = fields.pop("result_kind", None)
    if not (type(tag) is str and tag in _RESULT_READERS):
        raise _Defect(f"expected one of {tuple(_RESULT_READERS)}, got {tag!r}", "result_kind")
    return _RESULT_READERS[tag](fields)


def write_results_file(rs, path: str | Path) -> None:
    """Write the results of one analysis, tagged with its ``result_kind``."""
    doc = {"result_kind": _RESULT_KINDS[type(rs)], **_to_doc(rs, _RESULTS)}
    # no cycle to look for: the document's lists and records are new, and the
    # result set's maps it holds as they are map ints to floats or float tuples
    Path(path).write_text(json.dumps(doc, check_circular=False) + "\n", encoding="utf-8")


def read_results(path: str | Path):
    """Load a results database; the ``result_kind`` tag selects the shape.
    Raises ResultsError naming the path and its defect: a missing file, or
    one that is not a results document, numbers that are not finite included."""
    path = Path(path)
    if not path.exists():
        raise ResultsError(f"{path}: no such file")
    try:
        return _read_json(_read_result_set, path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8, or an overlong id
        raise ResultsError(f"{path}: {exc}") from None
    except _Defect as defect:
        raise ResultsError(f"{path}: {defect.path}: {defect.reason}") from None


class _RuntimeStop(Exception):
    """Stops the interpreter at the current statement with a fault of
    ``kind``: an exceeded resource budget (``budget``) aborts the run, any
    other kind fails it."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


class _ModelBuilder:
    """Mutable model under construction while the interpreter runs."""

    def __init__(self):
        self.begun = False
        self.stores: dict[type, dict] = {kind: {} for kind in COLLECTIONS}  # records by key

    def require_begun(self):
        if not self.begun:
            raise _RuntimeStop("state", "no active model: missing 'model begin'")

    def declare(self, entities: Sequence[Entity]):
        """Store one declaration run, all of one class, in order, each entity
        under its key: a fix or load merges with the one at its node."""
        kind = type(entities[0])
        COLLECTIONS[kind].ingest(self.stores[kind], entities)

    def to_ir(self, analysis: AnalysisSpec) -> IRModel:
        return IRModel(**{row.attr: tuple(map(self.stores[kind].get, sorted(self.stores[kind])))
                          for kind, row in COLLECTIONS.items()}, analysis=analysis)


def _check_work(spec: AnalysisSpec, free: int) -> None:
    """Abort a run of an L1-clean spec whose budgeted work on ``free`` dofs is too much."""
    unit, count = ANALYSES[spec.mode].work(spec, free)
    if count > (limit := _WORK_LIMITS[unit]):
        raise _RuntimeStop("budget", f"{unit} budget exceeded ({count} > {limit} {unit}s)")


def execute(script_text: str, ws_root: Path, limits: Limits,
            mode: str = "inprocess", program: ScriptAST | None = None) -> ExecutionOutcome:
    """Interpret a script inside the workspace directory ``ws_root`` under
    the resource budget.

    Errors never escape: parse and runtime faults yield a FAILED outcome,
    an exceeded budget an ABORTED one with a ``budget`` fault that names it.
    The kernel protects the root model container even when preflight was
    bypassed. ``mode="subprocess"`` runs the same interpreter in a child OS
    process with the identical observable contract; the child parses the
    ``script.sim`` it finds.

    ``program`` is ``parse_script(script_text)`` when the caller already has
    it (synthesis parses every attempt for preflight); in process it is run
    as it is instead of parsing the text again. ``script.sim`` is written
    from the text either way. Text that UTF-8 cannot encode is written with
    each such character as its ``\\uXXXX`` escape, and fails at its parse
    fault in either mode.
    """
    if mode not in ("inprocess", "subprocess"):
        raise ValueError(f"unknown execution mode {mode!r}")
    start = time.monotonic()
    script = ws_root / SCRIPT_FILENAME
    try:
        script.write_text(script_text, encoding="utf-8")
    except UnicodeEncodeError:
        script.write_text(script_text, encoding="utf-8", errors="backslashreplace")
        return _interpret(script_text, ws_root, limits, start)
    if mode == "subprocess":
        return _execute_subprocess(ws_root, limits)
    return _interpret(script_text if program is None else program, ws_root, limits, start)


def _finish(ws_root: Path, log_lines: list[str], fault: Fault | None = None,
            results_path: Path | None = None) -> ExecutionOutcome:
    """Close the log with the status line, write it as ``run.log`` and build
    the outcome; the fault, if any, sets the status."""
    status = "COMPLETED" if fault is None else "ABORTED" if fault.kind == "budget" else "FAILED"
    log = "\n".join([*log_lines, f"STATUS: {status}"]) + "\n"
    (ws_root / LOG_FILENAME).write_text(log, encoding="utf-8")
    return ExecutionOutcome(status=status, results_path=results_path, log=log,
                            runtime_error=fault)


def _interpret(program: ScriptAST | str, ws_root: Path, limits: Limits,
               start: float) -> ExecutionOutcome:
    """Run a program statement by statement, parsing it first when it is
    given as text; ``start`` is when the wall-time budget began."""
    if isinstance(program, str):
        try:
            program = parse_script(program)
        except ScriptParseError as exc:
            return _finish(ws_root, [f"parse error at {exc}"], exc.fault)

    log_lines: list[str] = []
    builder = _ModelBuilder()
    results = None
    results_path: Path | None = None

    def resolve_path(p: str) -> Path:
        # the workspace boundary: the path, anchored at the workspace when relative
        # and its existing symlinks resolved, is the workspace or lies under it
        root = os.path.realpath(ws_root)
        if "\0" in p or os.path.commonpath(
                [root, os.path.realpath(os.path.join(root, p))]) != root:
            raise _RuntimeStop("isolation", f"artifact path escapes workspace: {p}")
        return ws_root / p

    def over_budget() -> _RuntimeStop:
        return _RuntimeStop("budget", f"statement budget ({limits.max_statements}) exceeded")

    stmt = None
    executed = 0  # lines run so far
    line = None  # the line of the statement being run, or of the last one run
    try:
        for stmt in program.statements:
            if executed >= limits.max_statements:
                raise over_budget()
            if time.monotonic() - start > limits.max_wall_time:
                raise _RuntimeStop("budget", f"wall time budget ({limits.max_wall_time}s) exceeded")
            if isinstance(stmt, Declare):
                # the run's lines up to the end of the statement budget, at once
                room = limits.max_statements - executed
                lines, sources = stmt.lines[:room], stmt.sources[:room]
                line = lines[0]
                log_lines.append(f"[line {line}] {sources[0]}")
                builder.require_begun()
                log_lines += map("[line {}] {}".format, lines[1:], sources[1:])
                builder.declare(stmt.entities[:room])
                line = lines[-1]
                executed += len(lines)
                if len(lines) < len(stmt.lines):
                    raise over_budget()
                continue
            line = stmt.line
            executed += 1
            log_lines.append(f"[line {line}] {stmt.source}")
            if isinstance(stmt, ModelBegin):
                builder.begun = True
            elif isinstance(stmt, WorkspaceStmt):
                resolve_path(stmt.path)  # containment check only
            elif isinstance(stmt, Delete):
                builder.require_begun()
                if stmt.target == PROTECTED_ROOT:
                    raise _RuntimeStop("kernel-protection",
                                       "kernel protection: deletion of protected root container")
                kind, raw_id = stmt.target
                target_id = int(raw_id)
                table = builder.stores[Element if kind == "element" else Node]
                if target_id not in table:
                    raise _RuntimeStop("state", f"cannot delete unknown {kind} {target_id}")
                del table[target_id]
            elif isinstance(stmt, Analyze):
                builder.require_begun()
                spec = stmt.spec
                model = builder.to_ir(spec)
                schema_findings = check_l1(model)
                if schema_findings:
                    raise _RuntimeStop("model", f"model rejected: {schema_findings[0].message}")
                n_dofs = solved_dofs(model)
                if n_dofs > limits.max_solver_dofs:
                    raise _RuntimeStop("budget", f"solver budget exceeded "
                                                 f"({n_dofs} > {limits.max_solver_dofs} dofs)")
                _check_work(spec, free_dofs(model))
                results = ANALYSES[spec.mode].run(model)
                log_lines.append(f"    analysis complete ({n_dofs} dofs)")
            elif isinstance(stmt, WriteResults):
                if results is None:
                    raise _RuntimeStop("state", "no analysis results available to write")
                target = resolve_path(stmt.path)
                try:
                    target.parent.mkdir(parents=True, exist_ok=True)
                    write_results_file(results, target)
                except OSError as exc:
                    raise _RuntimeStop("sandbox", f"cannot write results to {stmt.path}: "
                                                  f"{exc.strerror or type(exc).__name__}") from None
                results_path = target
            elif isinstance(stmt, End):
                break
        # the run ended at an end statement or ran out of statements; either
        # way the fault line is that of the last executed statement, if any
        for missing, message in (
                (not isinstance(stmt, End),
                 "no termination signal: script ran out without an end statement"),
                (results is None, "idle run, no execution trigger: analyze statement absent"),
                (results_path is None, "no results persistence: write_results statement absent")):
            if missing:
                raise _RuntimeStop("lifecycle", message)
    except _RuntimeStop as exc:
        log_lines.append(f"abort: {exc}" if exc.kind == "budget" else f"    ERROR {exc}")
        return _finish(ws_root, log_lines, Fault(exc.kind, line, str(exc)))
    except (SolverError, ArithmeticError, ValueError) as exc:  # or non-finite model data
        log_lines.append(f"    ERROR solver: {exc}")
        return _finish(ws_root, log_lines, Fault("solver", line, str(exc)))
    return _finish(ws_root, log_lines, results_path=results_path)


def _execute_subprocess(ws_root: Path, limits: Limits) -> ExecutionOutcome:
    """Run the interpreter on the workspace's script in a child OS process;
    same artifacts and outcome."""
    cmd = [sys.executable, "-m", "vfea.sandbox", str(ws_root), json.dumps(asdict(limits))]
    # the child imports this vfea, however the parent found it
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": _PACKAGE_PARENT + (os.pathsep + path if path else "")}
    # subprocess waits at most 2**31 - 1 ms; the child checks a longer budget itself
    timeout = limits.max_wall_time + 30.0
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False, env=env,
                              timeout=timeout if timeout < 2_147_483 else None)
    except subprocess.TimeoutExpired:
        fault = Fault("budget", None, "child process exceeded the wall time budget")
        return _finish(ws_root, [f"abort: {fault.message}"], fault)
    try:
        if proc.returncode == 0:
            doc = json.loads(proc.stdout)
            return ExecutionOutcome(**{
                **doc, "results_path": doc["results_path"] and Path(doc["results_path"]),
                "runtime_error": doc["runtime_error"] and Fault(**doc["runtime_error"])})
        reason = f"exit code {proc.returncode}"
    except (ValueError, KeyError, TypeError):
        reason = "unreadable outcome report"
    stderr = proc.stderr.strip().splitlines()
    fault = Fault("sandbox", None, f"sandbox child process failed ({reason})"
                  + (f": {stderr[-1]}" if stderr else ""))
    return _finish(ws_root, [f"    ERROR {fault.message}"], fault)


def _child_main(argv: list[str]) -> int:
    ws_root, limits = Path(argv[0]), Limits(**json.loads(argv[1]))
    script_text = (ws_root / SCRIPT_FILENAME).read_text(encoding="utf-8")
    out = _interpret(script_text, ws_root, limits, time.monotonic())
    print(json.dumps(asdict(out), default=str))
    return 0


if __name__ == "__main__":
    sys.exit(_child_main(sys.argv[1:]))
