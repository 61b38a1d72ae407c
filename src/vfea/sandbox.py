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
from dataclasses import asdict, dataclass
from pathlib import Path

from .ir import (AnalysisSpec, BoundaryCondition, Element, IRModel, Load,
                 Material, Node, Section, _Defect, _Field, _array, _expected,
                 _finite, _id_map, _read_json, _record, _text, _to_doc)
from .simscript import (Analyze, Declare, Delete, End, Entity, Fault, ModelBegin,
                        ScriptAST, ScriptParseError, WorkspaceStmt, WriteResults,
                        _inside_workspace, _stmt_text, parse_script)
from .solver import (AssemblyError, ModalResult, SingularSystemError, StaticResult,
                     TopoResult, UnsupportedOptimizationError, optimize_topology,
                     solve_modal, solve_static, solved_dofs)
from .validation import check_l1

SCRIPT_FILENAME = "script.sim"
LOG_FILENAME = "run.log"
# Modes one modal analysis may compute, min(count, dofs): the Lanczos basis
# holds about twice that many vectors of the model's dofs, and the dense
# path taken when the count reaches the free dofs is cubic in them.
MAX_MODES = 100
# Iterations one topology optimisation may run, each a full factorisation:
# an in-process run cannot be stopped once started, so the count is checked
# before it starts. At the default dof budget an iteration takes ~0.2 s, so
# 200 of them fit the default 60-s wall-time budget.
MAX_OC_ITERATIONS = 200

_alloc_counter = itertools.count(1)
# The directory that holds the vfea package, first on the child's import path.
_PACKAGE_PARENT = str(Path(__file__).resolve().parent.parent)


class WorkspaceError(Exception):
    pass


class ResultsMissingError(Exception):
    pass


class ResultsCorruptError(Exception):
    pass


@dataclass(frozen=True)
class Workspace:
    root: Path
    task_id: str
    created_at: float


@dataclass(frozen=True)
class Limits:
    max_statements: int = 10_000
    max_solver_dofs: int = 20_000
    max_wall_time: float = 60.0

    def __post_init__(self):
        if min(self.max_statements, self.max_solver_dofs, self.max_wall_time) <= 0:
            raise ValueError("all limits must be positive")


@dataclass(frozen=True)
class ExecutionOutcome:
    status: str  # COMPLETED | FAILED | ABORTED
    results_path: Path | None
    log: str
    runtime_error: Fault | None


def allocate_workspace(root_dir: str | Path, task_id: str) -> Workspace:
    """Create a fresh, empty, never-reused directory for one task run."""
    root_dir = Path(root_dir)
    if os.sep in task_id or task_id in ("", ".", ".."):
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
        return Workspace(root=candidate, task_id=task_id, created_at=time.time())
    raise WorkspaceError("workspace suffix space exhausted")


ResultSet = StaticResult | ModalResult | TopoResult


_numbers = _array(_finite)
_triples = _id_map(_array(_finite, 3, "components"))

# One record kind per result kind, tagged in the document by ``result_kind``,
# each field in the documented key order (docs/artifacts.md). Every number
# must be finite.
_RESULT_TAGS = {StaticResult: "static", ModalResult: "modal", TopoResult: "topo"}
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
_RESULT_READERS = {tag: _record(_RESULTS, cls) for cls, tag in _RESULT_TAGS.items()}


def _read_result_set(doc) -> ResultSet:
    if not isinstance(doc, dict):
        raise _expected("object", doc)
    fields = dict(doc)
    tag = fields.pop("result_kind", None)
    if not (type(tag) is str and tag in _RESULT_READERS):
        raise _Defect(f"expected one of {tuple(_RESULT_READERS)}, got {tag!r}", "result_kind")
    return _RESULT_READERS[tag](fields)


def write_results_file(rs: ResultSet, path: str | Path) -> None:
    doc = {"result_kind": _RESULT_TAGS[type(rs)], **_to_doc(rs, _RESULTS)}
    Path(path).write_text(json.dumps(doc) + "\n", encoding="utf-8")


def read_results(path: str | Path) -> ResultSet:
    """Load a results database; the ``result_kind`` tag selects the shape.
    A file that is not a results document, numbers that are not finite
    included, raises ResultsCorruptError."""
    path = Path(path)
    if not path.exists():
        raise ResultsMissingError(str(path))
    try:
        return _read_json(_read_result_set, path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8, or an overlong id
        raise ResultsCorruptError(f"{path}: {exc}") from None
    except _Defect as defect:
        raise ResultsCorruptError(f"{path}: {defect.path}: {defect.reason}") from None


class _RuntimeStop(Exception):
    """Stops the interpreter at the current statement: a fault of ``kind``,
    or, with no kind, an exceeded resource budget that aborts the run."""

    def __init__(self, kind: str | None, message: str):
        super().__init__(message)
        self.kind = kind


class _ModelBuilder:
    """Mutable model under construction while the interpreter runs."""

    def __init__(self):
        self.begun = False
        self.nodes: dict[int, Node] = {}
        self.materials: dict[int, Material] = {}
        self.sections: dict[int, Section] = {}
        self.elements: dict[int, Element] = {}
        self.bcs: dict[int, BoundaryCondition] = {}
        self.loads: dict[int, Load] = {}
        self._by_id = {Node: self.nodes, Material: self.materials, Section: self.sections,
                       Element: self.elements}

    def require_begun(self):
        if not self.begun:
            raise _RuntimeStop("state", "no active model: missing 'model begin'")

    def declare(self, entity: Entity):
        """Store a declared entity under its id; a fix adds its dofs to those
        already fixed at the node, a load adds to the node's load."""
        self.require_begun()
        if isinstance(entity, BoundaryCondition):
            prev = self.bcs.get(entity.node_id)
            dofs = entity.constrained_dofs | (prev.constrained_dofs if prev else frozenset())
            self.bcs[entity.node_id] = BoundaryCondition(entity.node_id, dofs)
        elif isinstance(entity, Load):
            prev = self.loads.get(entity.node_id) or Load(entity.node_id)
            self.loads[entity.node_id] = Load(entity.node_id, entity.fx + prev.fx,
                                              entity.fy + prev.fy, entity.mz + prev.mz)
        else:
            self._by_id[type(entity)][entity.id] = entity

    def to_ir(self, analysis: AnalysisSpec) -> IRModel:
        return IRModel(
            nodes=tuple(sorted(self.nodes.values(), key=lambda n: n.id)),
            elements=tuple(sorted(self.elements.values(), key=lambda e: e.id)),
            materials=tuple(sorted(self.materials.values(), key=lambda m: m.id)),
            sections=tuple(sorted(self.sections.values(), key=lambda s: s.id)),
            boundary_conditions=tuple(sorted(self.bcs.values(), key=lambda b: b.node_id)),
            loads=tuple(sorted(self.loads.values(), key=lambda l: l.node_id)),
            analysis=analysis,
        )


def execute(script_text: str, workspace: Workspace, limits: Limits,
            mode: str = "inprocess", program: ScriptAST | None = None) -> ExecutionOutcome:
    """Interpret a script inside its workspace under the resource budget.

    Errors never escape: parse and runtime faults yield a FAILED outcome,
    exceeded budgets yield ABORTED. The kernel protects the root model
    container even when preflight was bypassed. ``mode="subprocess"`` runs
    the same interpreter in a child OS process with the identical observable
    contract; the child parses the ``script.sim`` it finds.

    ``program`` is ``parse_script(script_text)`` when the caller already has
    it (synthesis parses every attempt for preflight); in process it is run
    as it is instead of parsing the text again. ``script.sim`` is written
    from the text either way.
    """
    if mode not in ("inprocess", "subprocess"):
        raise ValueError(f"unknown execution mode {mode!r}")
    start = time.monotonic()
    ws_root = Path(workspace.root)
    (ws_root / SCRIPT_FILENAME).write_text(script_text, encoding="utf-8")
    if mode == "subprocess":
        return _execute_subprocess(ws_root, limits)
    return _interpret(script_text if program is None else program, ws_root, limits, start)


def _finish(ws_root: Path, log_lines: list[str], status: str,
            fault: Fault | None = None, results_path: Path | None = None) -> ExecutionOutcome:
    """Close the log with the status line, write it as ``run.log`` and build
    the outcome."""
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
            return _finish(ws_root, [f"parse error at {exc}"], "FAILED", exc.fault)

    log_lines: list[str] = []
    builder = _ModelBuilder()
    results: ResultSet | None = None
    results_path: Path | None = None

    def resolve_path(p: str) -> Path:
        if not _inside_workspace(ws_root, p):
            raise _RuntimeStop("isolation", f"artifact path escapes workspace: {p}")
        return Path(p) if os.path.isabs(p) else ws_root / p

    try:
        for executed, stmt in enumerate(program.statements):
            if executed >= limits.max_statements:
                raise _RuntimeStop(None, f"statement budget ({limits.max_statements}) exceeded")
            if time.monotonic() - start > limits.max_wall_time:
                raise _RuntimeStop(None, f"wall time budget ({limits.max_wall_time}s) exceeded")
            log_lines.append(f"[line {stmt.line}] {_stmt_text(stmt)}")
            if isinstance(stmt, ModelBegin):
                builder.begun = True
            elif isinstance(stmt, Declare):
                builder.declare(stmt.entity)
            elif isinstance(stmt, WorkspaceStmt):
                resolve_path(stmt.path)  # containment check only
            elif isinstance(stmt, Delete):
                builder.require_begun()
                if stmt.target == ("model", "root"):
                    raise _RuntimeStop("kernel-protection",
                                       "kernel protection: deletion of protected root container")
                kind, raw_id = stmt.target
                target_id = int(raw_id)
                table = builder.elements if kind == "element" else builder.nodes
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
                # the budget counts the dofs the solver assembles, those of
                # the subdivided model for modal analysis
                modal = spec.mode == "modal"
                n_dofs = solved_dofs(model)
                if n_dofs > limits.max_solver_dofs:
                    raise _RuntimeStop(None, f"solver budget exceeded "
                                             f"({n_dofs} > {limits.max_solver_dofs} dofs)")
                # check_l1 has required a positive modal_count
                modes = min(spec.modal_count, n_dofs) if modal else 0
                if modes > MAX_MODES:
                    raise _RuntimeStop(None, f"mode budget exceeded ({modes} > {MAX_MODES} modes)")
                iters = spec.opt_max_iterations
                if spec.mode == "topology_optimization" and iters > MAX_OC_ITERATIONS:
                    raise _RuntimeStop(None, f"iteration budget exceeded "
                                             f"({iters} > {MAX_OC_ITERATIONS} iterations)")
                if spec.mode == "static":
                    results = solve_static(model)
                elif modal:
                    results = solve_modal(model, spec.modal_count)
                else:
                    results = optimize_topology(model, spec.opt_volume_fraction, iters)
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
        # way the fault line is that of the last executed statement
        for missing, message in (
                (not isinstance(stmt, End),
                 "no termination signal: script ran out without an end statement"),
                (results is None, "idle run, no execution trigger: analyze statement absent"),
                (results_path is None, "no results persistence: write_results statement absent")):
            if missing:
                raise _RuntimeStop("lifecycle", message)
    except _RuntimeStop as exc:
        if exc.kind is None:
            log_lines.append(f"abort: {exc}")
            return _finish(ws_root, log_lines, "ABORTED")
        log_lines.append(f"    ERROR {exc}")
        return _finish(ws_root, log_lines, "FAILED", Fault(exc.kind, stmt.line, str(exc)))
    except (AssemblyError, SingularSystemError, UnsupportedOptimizationError,
            ArithmeticError, ValueError) as exc:  # non-finite or overflowing model data
        log_lines.append(f"    ERROR solver: {exc}")
        return _finish(ws_root, log_lines, "FAILED", Fault("solver", stmt.line, str(exc)))
    return _finish(ws_root, log_lines, "COMPLETED", results_path=results_path)


def _execute_subprocess(ws_root: Path, limits: Limits) -> ExecutionOutcome:
    """Run the interpreter on the workspace's script in a child OS process;
    same artifacts and outcome."""
    cmd = [sys.executable, "-m", "vfea.sandbox", str(ws_root), json.dumps(asdict(limits))]
    # the child imports this vfea, however the parent found it
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": _PACKAGE_PARENT + (os.pathsep + path if path else "")}
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False, env=env,
                              timeout=limits.max_wall_time + 30.0)
    except subprocess.TimeoutExpired:
        return _finish(ws_root, ["abort: child process exceeded the wall time budget"], "ABORTED")
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
    return _finish(ws_root, [f"    ERROR {fault.message}"], "FAILED", fault)


def _child_main(argv: list[str]) -> int:
    ws_root, limits = Path(argv[0]), Limits(**json.loads(argv[1]))
    script_text = (ws_root / SCRIPT_FILENAME).read_text(encoding="utf-8")
    out = _interpret(script_text, ws_root, limits, time.monotonic())
    print(json.dumps(asdict(out), default=str))
    return 0


if __name__ == "__main__":
    sys.exit(_child_main(sys.argv[1:]))
