"""Simulation script language: parser, AST, preflight checks, IR lowering.

Grammar (docs/simscript.md): one statement per line, whitespace-separated
tokens, ``#`` starts a comment. Unknown statements are parse errors, which
is how hallucinated constructs surface before execution.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from .ir import (DEFAULT_OPT_ITERS, DEFAULT_VOLFRAC, DOF_ORDER, AnalysisSpec,
                 BoundaryCondition, Element, IRModel, Load, Material, Node, Section,
                 canonicalize)

KIND_TO_SCRIPT = {"truss_bar": "truss", "frame_beam": "frame"}
SCRIPT_TO_KIND = {v: k for k, v in KIND_TO_SCRIPT.items()}

ANALYZE_KINDS = ("static", "modal", "topopt")
DELETE_TARGETS = ("model", "element", "node")
PROTECTED_ROOT = ("model", "root")

RESULTS_FILENAME = "results.res"

Entity = Node | Material | Section | Element | BoundaryCondition | Load


@dataclass(frozen=True)
class Fault:
    """Why a script was rejected before execution or stopped during it: the
    failure kind (a key of ``memory.FAILURE_KINDS``), the script line to
    blame if there is one, and the message."""
    kind: str
    line: int | None
    message: str


class ScriptParseError(Exception):
    def __init__(self, line: int, token: str, reason: str):
        self.line = line
        self.token = token
        self.reason = reason
        super().__init__(f"line {line}: {reason}" + (f" ({token!r})" if token else ""))

    @property
    def fault(self) -> Fault:
        return Fault("parse", self.line, str(self))


class LoweringError(Exception):
    """Model feature the template engine cannot express (unreachable after audit)."""


@dataclass(frozen=True)
class Statement:
    line: int


@dataclass(frozen=True)
class ModelBegin(Statement):
    pass


@dataclass(frozen=True)
class Declare(Statement):
    """A ``node``, ``material``, ``section``, ``element``, ``fix`` or ``load``
    statement, carrying the model entity it declares."""
    entity: Entity


@dataclass(frozen=True)
class WorkspaceStmt(Statement):
    path: str


@dataclass(frozen=True)
class Analyze(Statement):
    spec: AnalysisSpec


@dataclass(frozen=True)
class WriteResults(Statement):
    path: str


@dataclass(frozen=True)
class Delete(Statement):
    target: tuple[str, ...]


@dataclass(frozen=True)
class End(Statement):
    pass


@dataclass(frozen=True)
class ScriptAST:
    statements: tuple[Statement, ...]


def _int(tok: str, line: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ScriptParseError(line, tok, "expected an integer") from None


def _float(tok: str, line: int) -> float:
    try:
        return float(tok)
    except ValueError:
        raise ScriptParseError(line, tok, "expected a number") from None


def _arity(tokens: list[str], n: int, line: int, stmt: str):
    if len(tokens) != n:
        raise ScriptParseError(line, " ".join(tokens),
                               f"'{stmt}' takes {n - 1} arguments, got {len(tokens) - 1}")


def parse_script(text: str) -> ScriptAST:
    statements: list[Statement] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        code = raw.split("#", 1)[0].strip()
        if not code:
            continue
        toks = code.split()
        head = toks[0]
        if head == "model":
            if len(toks) != 2 or toks[1] != "begin":
                raise ScriptParseError(lineno, code, "unknown statement")
            statements.append(ModelBegin(lineno))
        elif head == "node":
            _arity(toks, 4, lineno, "node")
            statements.append(Declare(lineno, Node(
                _int(toks[1], lineno), _float(toks[2], lineno), _float(toks[3], lineno))))
        elif head == "material":
            _arity(toks, 5, lineno, "material")
            statements.append(Declare(lineno, Material(
                _int(toks[1], lineno), _float(toks[2], lineno), _float(toks[3], lineno),
                _float(toks[4], lineno))))
        elif head == "section":
            if len(toks) not in (4, 5):
                raise ScriptParseError(lineno, code, "'section' takes 3 or 4 arguments")
            inertia = _float(toks[4], lineno) if len(toks) == 5 else None
            statements.append(Declare(lineno, Section(_int(toks[1], lineno), _int(toks[2], lineno),
                                                      _float(toks[3], lineno), inertia)))
        elif head == "element":
            _arity(toks, 6, lineno, "element")
            if toks[2] not in SCRIPT_TO_KIND:
                raise ScriptParseError(lineno, toks[2], "unknown element kind")
            statements.append(Declare(lineno, Element(
                _int(toks[1], lineno), SCRIPT_TO_KIND[toks[2]],
                (_int(toks[3], lineno), _int(toks[4], lineno)), _int(toks[5], lineno))))
        elif head == "fix":
            _arity(toks, 3, lineno, "fix")
            dofs = toks[2].split(",")
            for d in dofs:
                if d not in DOF_ORDER:
                    raise ScriptParseError(lineno, d, "unknown dof (expected ux, uy or rz)")
            statements.append(Declare(lineno, BoundaryCondition(_int(toks[1], lineno),
                                                                frozenset(dofs))))
        elif head == "load":
            _arity(toks, 5, lineno, "load")
            statements.append(Declare(lineno, Load(
                _int(toks[1], lineno), _float(toks[2], lineno), _float(toks[3], lineno),
                _float(toks[4], lineno))))
        elif head == "workspace":
            _arity(toks, 2, lineno, "workspace")
            statements.append(WorkspaceStmt(lineno, toks[1]))
        elif head == "analyze":
            if len(toks) < 2 or toks[1] not in ANALYZE_KINDS:
                raise ScriptParseError(lineno, code, "unknown analysis kind")
            if toks[1] == "static":
                _arity(toks, 2, lineno, "analyze static")
                statements.append(Analyze(lineno, AnalysisSpec("static")))
            elif toks[1] == "modal":
                if len(toks) != 4 or toks[2] != "count":
                    raise ScriptParseError(lineno, code, "expected 'analyze modal count <n>'")
                statements.append(Analyze(lineno, AnalysisSpec(
                    "modal", modal_count=_int(toks[3], lineno))))
            else:
                if len(toks) != 6 or toks[2] != "volfrac" or toks[4] != "iters":
                    raise ScriptParseError(lineno, code,
                                           "expected 'analyze topopt volfrac <v> iters <n>'")
                statements.append(Analyze(lineno, AnalysisSpec(
                    "topology_optimization", opt_volume_fraction=_float(toks[3], lineno),
                    opt_max_iterations=_int(toks[5], lineno))))
        elif head == "write_results":
            _arity(toks, 2, lineno, "write_results")
            statements.append(WriteResults(lineno, toks[1]))
        elif head == "delete":
            if len(toks) != 3 or toks[1] not in DELETE_TARGETS:
                raise ScriptParseError(lineno, code, "unknown delete target")
            if toks[1] == "model":
                if toks[2] != "root":
                    raise ScriptParseError(lineno, code, "unknown delete target")
                statements.append(Delete(lineno, ("model", "root")))
            else:
                _int(toks[2], lineno)
                statements.append(Delete(lineno, (toks[1], toks[2])))
        elif head == "end":
            _arity(toks, 1, lineno, "end")
            statements.append(End(lineno))
        else:
            raise ScriptParseError(lineno, head, "unknown statement")
    if not statements:
        raise ScriptParseError(0, "", "empty script")
    return ScriptAST(tuple(statements))


def _entity_text(e: Entity) -> str:
    if isinstance(e, Node):
        return f"node {e.id} {e.x!r} {e.y!r}"
    if isinstance(e, Material):
        return f"material {e.id} {e.youngs_modulus!r} {e.poisson_ratio!r} {e.density!r}"
    if isinstance(e, Section):
        base = f"section {e.id} {e.material_id} {e.area!r}"
        return base if e.moment_of_inertia is None else f"{base} {e.moment_of_inertia!r}"
    if isinstance(e, Element):
        if e.kind not in KIND_TO_SCRIPT:
            raise LoweringError(f"element kind {e.kind!r} has no script form")
        return (f"element {e.id} {KIND_TO_SCRIPT[e.kind]} {e.node_ids[0]} {e.node_ids[1]} "
                f"{e.section_id}")
    if isinstance(e, BoundaryCondition):
        return f"fix {e.node_id} {','.join(e.sorted_dofs())}"
    return f"load {e.node_id} {e.fx!r} {e.fy!r} {e.mz!r}"


def _analyze_text(a: AnalysisSpec) -> str:
    """The analyze statement of a spec; topology optimisation without its
    parameters takes the conservative priors."""
    if a.mode == "static":
        return "analyze static"
    if a.mode == "modal":
        if a.modal_count is None:
            raise LoweringError("modal analysis without modal_count")
        return f"analyze modal count {a.modal_count}"
    if a.mode == "topology_optimization":
        volfrac = a.opt_volume_fraction if a.opt_volume_fraction is not None else DEFAULT_VOLFRAC
        iters = a.opt_max_iterations if a.opt_max_iterations is not None else DEFAULT_OPT_ITERS
        return f"analyze topopt volfrac {volfrac!r} iters {iters}"
    raise LoweringError(f"analysis mode {a.mode!r} has no script form")


def _stmt_text(s: Statement) -> str:
    if isinstance(s, Declare):
        return _entity_text(s.entity)
    if isinstance(s, ModelBegin):
        return "model begin"
    if isinstance(s, WorkspaceStmt):
        return f"workspace {s.path}"
    if isinstance(s, Analyze):
        return _analyze_text(s.spec)
    if isinstance(s, WriteResults):
        return f"write_results {s.path}"
    if isinstance(s, Delete):
        return f"delete {' '.join(s.target)}"
    if isinstance(s, End):
        return "end"
    raise LoweringError(f"unprintable statement {s!r}")


def print_script(ast: ScriptAST) -> str:
    """Canonical text rendering; parse_script(print_script(a)) reproduces a
    up to line numbering."""
    return "\n".join(_stmt_text(s) for s in ast.statements) + "\n"


def _inside_workspace(root: str | Path, candidate: str) -> bool:
    # lexical containment; symlinks in existing prefixes are resolved first
    root_real = os.path.realpath(str(root))
    cand = candidate if os.path.isabs(candidate) else os.path.join(root_real, candidate)
    try:
        cand_real = os.path.realpath(cand)
    except ValueError:  # embedded NUL: not a path at all
        return False
    return cand_real == root_real or cand_real.startswith(root_real + os.sep)


def preflight(ast: ScriptAST, workspace_root: str | Path) -> list[Fault]:
    """Static verification: lifecycle integrity, kernel safety, path isolation.
    Each violation is a fault of kind ``lifecycle``, ``safety`` or ``isolation``."""
    out: list[Fault] = []
    present = {type(s) for s in ast.statements}
    for required, message in ((Analyze, "no execution trigger: analyze statement absent"),
                              (WriteResults,
                               "no results persistence: write_results statement absent"),
                              (End, "no termination signal: end statement absent")):
        if required not in present:
            out.append(Fault("lifecycle", None, message))
    for s in ast.statements:
        if isinstance(s, Delete) and s.target == PROTECTED_ROOT:
            out.append(Fault("safety", s.line,
                             "unsafe kernel operation: deletion of protected root container"))
        if isinstance(s, (WriteResults, WorkspaceStmt)):
            if not _inside_workspace(workspace_root, s.path):
                out.append(Fault("isolation", s.line, f"artifact path escapes workspace: {s.path}"))
    return out


def lower_ir(model: IRModel, workspace: str | Path) -> str:
    """Rule-based lowering of an audited model to a guaranteed-executable script.

    Output is byte-stable and uses workspace-relative artifact paths, so the
    same script runs in any allocated workspace; ``workspace`` is the root the
    guarantee is stated against.
    """
    m = canonicalize(model)
    lines = ["model begin"]
    for entities in (m.materials, m.sections, m.nodes, m.elements, m.boundary_conditions,
                     m.loads):
        lines.extend(_entity_text(e) for e in entities)
    lines += [_analyze_text(m.analysis), f"write_results {RESULTS_FILENAME}", "end"]
    return "\n".join(lines) + "\n"
