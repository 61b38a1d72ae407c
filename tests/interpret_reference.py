"""The script interpreter as it was before declaration runs, kept as the
reference the run-at-once ``vfea.sandbox._interpret`` is checked against
(tests/test_sandbox.py). It runs one statement per line, so ``lines``
first expands each run of declarations into one statement per line; the
dofs it budgets are counted from a dof index, as ``solved_dofs`` once
counted them, the one of element_kinds_reference.py and not the solver's,
and the modes from the free ones among them. A budget stop carries a
``budget`` fault on the last line run, like every other stop."""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path

from element_kinds_reference import build_dof_index
from vfea.ir import AnalysisSpec, BoundaryCondition, IRModel, Load
from vfea.sandbox import (MAX_MODES, MAX_OC_ITERATIONS, ExecutionOutcome, Limits, _finish,
                          _RuntimeStop, write_results_file)
from vfea.simscript import (Analyze, Declare, Delete, End, Entity, Fault, ModelBegin, ScriptAST,
                            WorkspaceStmt, WriteResults)
from vfea.solver import ANALYSES, SolverError
from vfea.validation import check_l1


@dataclass(frozen=True)
class Declared:
    """One declaration line."""
    line: int
    source: str
    entity: Entity


def lines(program: ScriptAST) -> list:
    """The program's statements, one per line."""
    out = []
    for s in program.statements:
        if isinstance(s, Declare):
            out += map(Declared, s.lines, s.sources, s.entities)
        else:
            out.append(s)
    return out


def _inside_workspace(root: str | Path, candidate: str) -> bool:
    # lexical containment; symlinks in existing prefixes are resolved first
    root_real = os.path.realpath(str(root))
    cand = candidate if os.path.isabs(candidate) else os.path.join(root_real, candidate)
    try:
        cand_real = os.path.realpath(cand)
    except ValueError:  # embedded NUL: not a path at all
        return False
    return cand_real == root_real or cand_real.startswith(root_real + os.sep)


def solved_dofs(model: IRModel) -> int:
    n = len(build_dof_index(model))
    if model.analysis.mode == "modal":
        frames = sum(e.kind != "truss_bar" for e in model.elements)
        n += 3 * (ANALYSES["modal"].subdivisions - 1) * frames
    return n


class _ModelBuilder:
    def __init__(self):
        self.begun = False
        self.nodes, self.materials, self.sections, self.elements = {}, {}, {}, {}
        self.bcs: dict = {}
        self.loads: dict = {}

    def require_begun(self):
        if not self.begun:
            raise _RuntimeStop("state", "no active model: missing 'model begin'")

    def declare(self, entity: Entity):
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
            table = {"Node": self.nodes, "Material": self.materials, "Section": self.sections,
                     "Element": self.elements}[type(entity).__name__]
            table[entity.id] = entity

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


def interpret(program: ScriptAST, ws_root: Path, limits: Limits,
              start: float) -> ExecutionOutcome:
    log_lines: list[str] = []
    builder = _ModelBuilder()
    results = None
    results_path: Path | None = None

    def resolve_path(p: str) -> Path:
        if not _inside_workspace(ws_root, p):
            raise _RuntimeStop("isolation", f"artifact path escapes workspace: {p}")
        return Path(p) if os.path.isabs(p) else ws_root / p

    stmt = None
    line = None  # the line of the last statement run
    try:
        for executed, stmt in enumerate(lines(program)):
            if executed >= limits.max_statements:
                raise _RuntimeStop("budget", f"statement budget ({limits.max_statements}) exceeded")
            if time.monotonic() - start > limits.max_wall_time:
                raise _RuntimeStop("budget", f"wall time budget ({limits.max_wall_time}s) exceeded")
            line = stmt.line
            log_lines.append(f"[line {stmt.line}] {stmt.source}")
            if isinstance(stmt, ModelBegin):
                builder.begun = True
            elif isinstance(stmt, Declared):
                builder.declare(stmt.entity)
            elif isinstance(stmt, WorkspaceStmt):
                resolve_path(stmt.path)
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
                n_dofs = solved_dofs(model)
                if n_dofs > limits.max_solver_dofs:
                    raise _RuntimeStop("budget", f"solver budget exceeded "
                                                 f"({n_dofs} > {limits.max_solver_dofs} dofs)")
                free = n_dofs - sum(len(b.constrained_dofs) for b in model.boundary_conditions)
                modes = min(spec.modal_count, free) if spec.mode == "modal" else 0
                if modes > MAX_MODES:
                    raise _RuntimeStop("budget",
                                       f"mode budget exceeded ({modes} > {MAX_MODES} modes)")
                iters = spec.opt_max_iterations
                if spec.mode == "topology_optimization" and iters > MAX_OC_ITERATIONS:
                    raise _RuntimeStop("budget", f"iteration budget exceeded "
                                                 f"({iters} > {MAX_OC_ITERATIONS} iterations)")
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
    except (SolverError, ArithmeticError, ValueError) as exc:
        log_lines.append(f"    ERROR solver: {exc}")
        return _finish(ws_root, log_lines, Fault("solver", line, str(exc)))
    return _finish(ws_root, log_lines, results_path=results_path)
