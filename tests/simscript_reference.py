"""The script parser as it was before the statement table, kept verbatim as
the reference the table-driven ``vfea.simscript.parse_script`` is checked
against (tests/test_simscript.py). Its statements carry no source text."""

from __future__ import annotations

from dataclasses import dataclass

from element_kinds_reference import SCRIPT_TO_KIND
from vfea.ir import (DOF_ORDER, AnalysisSpec, BoundaryCondition, Element, Load, Material,
                     Node, Section)
from vfea.simscript import Entity, ScriptParseError

ANALYZE_KINDS = ("static", "modal", "topopt")
DELETE_TARGETS = ("model", "element", "node")


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
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
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
