"""Simulation script language: parser, AST, preflight checks, IR lowering.

Grammar (docs/simscript.md): one statement per line, whitespace-separated
tokens, ``#`` starts a comment. Unknown statements are parse errors, which
is how hallucinated constructs surface before execution.
"""

from __future__ import annotations

import itertools
import operator
import os
from collections.abc import Callable
from dataclasses import dataclass

from .ir import (COLLECTIONS, DOF_ORDER, KINDS, MODES, AnalysisMode, AnalysisSpec,
                 BoundaryCondition, Element, IRModel, Load, Material, Node, Section)

PROTECTED_ROOT = ("model", "root")

RESULTS_FILENAME = "results.res"

_FIRST = operator.itemgetter(0)
_FORM = operator.itemgetter(2)

Entity = Node | Material | Section | Element | BoundaryCondition | Load


@dataclass(frozen=True)
class Fault:
    """Why a script was rejected before execution or stopped during it: the
    failure kind (its attempt row of ``failures.FAILURES``), the script line
    to blame if there is one, and the message."""
    kind: str
    line: int | None
    message: str


class ScriptParseError(Exception):
    stage, kind = "attempt", "parse"

    def __init__(self, line: int, token: str, reason: str):
        self.line = line
        self.token = token
        self.reason = reason
        super().__init__(f"line {line}: {reason}" + (f" ({token!r})" if token else ""))

    @property
    def fault(self) -> Fault:
        return Fault(self.kind, self.line, str(self))


class LoweringError(Exception):
    """Model feature the template engine cannot express (unreachable after
    audit): the guaranteed-executable fallback would fail."""
    stage, kind = "synthesis", "fallback"


@dataclass(frozen=True)
class Statement:
    """A parsed statement: its source line number and its text there, the
    line without its comment and without surrounding whitespace."""
    line: int
    source: str


@dataclass(frozen=True)
class ModelBegin(Statement):
    pass


@dataclass(frozen=True)
class Declare:
    """A run of consecutive ``node``, ``material``, ``section``, ``element``,
    ``fix`` or ``load`` lines of one form: each line's number, its source
    text and the model entity it declares."""
    lines: tuple[int, ...]
    sources: tuple[str, ...]
    entities: tuple[Entity, ...]


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
    """A program's statements in line order, each run of declarations of
    one form as one ``Declare``."""
    statements: tuple[Statement | Declare, ...]


class _BadToken(ValueError):
    """An argument its reader rejects; its args are the token to name and why."""


_KIND_OF_WORD = {row.word: kind for kind, row in KINDS.items()}


def _kind(tok: str) -> str:
    if tok not in _KIND_OF_WORD:
        raise _BadToken(tok, "unknown element kind")
    return _KIND_OF_WORD[tok]


def _dofs(tok: str) -> frozenset[str]:
    dofs = tok.split(",")
    for d in dofs:
        if d not in DOF_ORDER:
            raise _BadToken(d, "unknown dof (expected ux, uy or rz)")
    return frozenset(dofs)


def _id(tok: str) -> str:
    """A delete target's id, kept as written once it reads as an integer."""
    int(tok)
    return tok


# Why the readers of numbers reject a token; the other readers raise
# _BadToken with their own reason.
_REASONS = {int: "expected an integer", float: "expected a number", _id: "expected an integer"}


def _declare(cls: type):
    return lambda *columns: map(cls, *columns)


def _delete(*target: str):
    return lambda line, source, *values: Delete(line, source, (*target, *values))


class _Form:
    """One statement form: ``tokens`` in line order, a keyword as a string
    and an argument as the function that reads it. A form keyed by an
    entity class declares that entity: its ``build(*columns)`` gives the
    entities of a run of its lines from their argument columns. Any other
    form's ``build(line, source, *values)`` makes the statement of one
    line. ``text`` prints what a line carries (entity, spec, path or
    target) and ``key`` selects it for printing; ``usage`` is the reason
    for a line that names the form but does not fit it (by default, the
    argument count); with ``optional`` the last argument may be left out,
    and reads as None. A line's arguments are checked in the order the
    grammar has always reported them: the optional one and the words
    first, then the numbers from left to right."""

    def __init__(self, tokens: tuple, build: Callable, key: object,
                 text: Callable[[object], str], usage: str | None = None,
                 optional: bool = False):
        self.tokens, self.build, self.key, self.text, self.usage = tokens, build, key, text, usage
        self.declares = key in Entity.__args__
        self.words = tuple(t for t in tokens if isinstance(t, str))
        self.keywords = tuple((i, t) for i, t in enumerate(tokens) if i and isinstance(t, str))
        self.args = tuple((i, t) for i, t in enumerate(tokens) if not isinstance(t, str))
        self.sizes = (len(tokens), len(tokens) - 1) if optional else (len(tokens),)
        last = self.args[-1] if optional else None
        self.checks = sorted(self.args, key=lambda a: (a[1] in _REASONS and a != last, a[0]))

    def rejected(self, toks: list[str], line: int) -> ScriptParseError:
        """The error of a line that fits the form but not its readers."""
        for i, read in self.checks:
            if i < len(toks):
                try:
                    read(toks[i])
                except _BadToken as exc:
                    return ScriptParseError(line, *exc.args)
                except ValueError:
                    return ScriptParseError(line, toks[i], _REASONS[read])


# A parameter value's usage placeholder and format, by its reader; ``:d``
# refuses an unset kept parameter, so a spec without it does not lower
_VALUE_TEXT = {int: ("<n>", "{:d}"), float: ("<v>", "{!r}")}


def _analyze(mode: str, row: AnalysisMode) -> _Form:
    """The ``analyze`` form of a mode's row, printing a parameter the spec
    leaves unset as its prior."""
    def text(values) -> str:  # the mode's word, then each parameter's keyword and value
        return " ".join(["analyze", row.word,
                         *(f"{p.word} {v}" for p, v in zip(row.params, values))])

    return _Form(
        ("analyze", row.word, *itertools.chain.from_iterable((p.word, p.read) for p in row.params)),
        lambda line, source, *values: Analyze(line, source, AnalysisSpec(
            mode, **{p.attr: v for p, v in zip(row.params, values)})),
        mode, lambda spec: text(_VALUE_TEXT[p.read][1].format(v)
                                for p, v in zip(row.params, row.values(spec))),
        f"expected '{text(_VALUE_TEXT[p.read][0] for p in row.params)}'" if row.params else None)


# The script language (docs/simscript.md), one row per statement form: the
# one mapping between script text and statements, entities and specs.
_STATEMENTS = (
    _Form(("model", "begin"), ModelBegin, ModelBegin, lambda _: "model begin",
          "unknown statement"),
    _Form(("material", int, float, float, float), _declare(Material), Material,
          lambda e: f"material {e.id} {e.youngs_modulus!r} {e.poisson_ratio!r} {e.density!r}"),
    _Form(("section", int, int, float, float), _declare(Section), Section,
          lambda e: f"section {e.id} {e.material_id} {e.area!r}"
                    + ("" if e.moment_of_inertia is None else f" {e.moment_of_inertia!r}"),
          "'section' takes 3 or 4 arguments", optional=True),
    _Form(("node", int, float, float), _declare(Node), Node,
          lambda e: f"node {e.id} {e.x!r} {e.y!r}"),
    _Form(("element", int, _kind, int, int, int),
          lambda ids, kinds, n1, n2, sections: map(Element, ids, kinds, zip(n1, n2), sections),
          Element, lambda e: f"element {e.id} {KINDS[e.kind].word} {e.node_ids[0]} "
                             f"{e.node_ids[1]} {e.section_id}"),
    _Form(("fix", int, _dofs), _declare(BoundaryCondition), BoundaryCondition,
          lambda e: f"fix {e.node_id} {','.join(e.sorted_dofs())}"),
    _Form(("load", int, float, float, float), _declare(Load), Load,
          lambda e: f"load {e.node_id} {e.fx!r} {e.fy!r} {e.mz!r}"),
    _Form(("workspace", str), WorkspaceStmt, WorkspaceStmt, lambda path: f"workspace {path}"),
    *(_analyze(mode, row) for mode, row in MODES.items()),
    _Form(("write_results", str), WriteResults, WriteResults,
          lambda path: f"write_results {path}"),
    _Form(("delete", "model", "root"), _delete("model", "root"), "model",
          lambda _: "delete model root", "unknown delete target"),
    _Form(("delete", "element", _id), _delete("element"), "element",
          lambda target: f"delete element {target[1]}", "unknown delete target"),
    _Form(("delete", "node", _id), _delete("node"), "node",
          lambda target: f"delete node {target[1]}", "unknown delete target"),
    _Form(("end",), End, End, lambda _: "end"),
)
# A head with several forms selects one by the word after it; a line with
# another word there is rejected for the reason in _UNKNOWN_FORM.
_UNKNOWN_FORM = {"analyze": "unknown analysis kind", "delete": "unknown delete target"}
_FORMS = {f.words[:2] if f.words[0] in _UNKNOWN_FORM else f.words[0]: f for f in _STATEMENTS}
_TEXT = {f.key: f.text for f in _STATEMENTS}


def _code_lines(text: str) -> list[str]:
    """The code of each line of a script or context text: a line ends at LF,
    CR LF or CR (as in a script file read back as text), ``#`` starts a
    comment, and surrounding whitespace is stripped. A blank line stays, so
    line numbers hold."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if "#" not in text:
        return list(map(str.strip, lines))
    return [raw.split("#", 1)[0].strip() for raw in lines]


def parse_script(text: str) -> ScriptAST:
    """The program of a script, read by columns: consecutive lines of one
    head are read together, a run of one declaration form and one argument
    count one argument column at a time, with one ``map`` of the column's
    reader, and any other run line by line. Runs are read in line order,
    and a run with a token its reader rejects is read again line by line,
    so the error names the first line in error. A script is UTF-8 text: a
    character UTF-8 cannot encode (a lone surrogate) is an error at its line."""
    if not text.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError as exc:  # the message names it by its repr, an escape
            raise ScriptParseError(len(_code_lines(text[:exc.start])), text[exc.start],
                                   "not UTF-8 text") from None
    codes = _code_lines(text)
    numbers = list(itertools.compress(itertools.count(1), codes))
    codes = list(filter(None, codes))
    toks = list(map(str.split, codes))
    statements: list[Statement | Declare] = []
    start = 0
    for head, run in itertools.groupby(map(_FIRST, toks)):
        end = start + len(list(run))
        values = _columns(_FORMS.get(head), toks[start:end])
        if values is None:
            statements += _statements([
                (n, code, *_read_line(n, code, t))
                for n, code, t in zip(numbers[start:end], codes[start:end], toks[start:end])])
        else:
            statements.append(Declare(tuple(numbers[start:end]), tuple(codes[start:end]),
                                      tuple(_FORMS[head].build(*values))))
        start = end
    if not statements:
        raise ScriptParseError(0, "", "empty script")
    return ScriptAST(tuple(statements))


def _columns(form: _Form | None, block: list[list[str]]) -> list[list] | None:
    """The argument columns of a run of lines of one declaration form and
    one argument count, each read with one ``map`` of its reader; None for
    any other run, and for one with a token its reader rejects."""
    if form is None or not form.declares or len(set(map(len, block))) != 1 \
            or len(block[0]) not in form.sizes:
        return None
    columns = list(zip(*block))
    try:
        return [list(map(read, columns[i])) for i, read in form.args if i < len(columns)]
    except ValueError:
        return None


def _read_line(lineno: int, code: str, toks: list[str]) -> tuple[_Form, list]:
    """The form of one line, without its comment, and its argument values;
    ScriptParseError when the line fits no form."""
    head = toks[0]
    form = _FORMS.get(head) or _FORMS.get(tuple(toks[:2]))
    if form is None:
        if head in _UNKNOWN_FORM:
            raise ScriptParseError(lineno, code, _UNKNOWN_FORM[head])
        raise ScriptParseError(lineno, head, "unknown statement")
    if len(toks) not in form.sizes or (
            form.keywords and any(toks[i] != word for i, word in form.keywords)):
        if form.usage is None:
            raise ScriptParseError(lineno, " ".join(toks), f"'{' '.join(form.words)}' takes "
                                   f"{len(form.tokens) - 1} arguments, got {len(toks) - 1}")
        raise ScriptParseError(lineno, code, form.usage)
    try:
        values = [read(toks[i]) for i, read in form.args if i < len(toks)]
    except ValueError:
        raise form.rejected(toks, lineno) from None
    return form, values + [None] * (len(form.args) - len(values))


def _statements(rows: list[tuple]) -> list[Statement | Declare]:
    """The statements of read lines, each ``(line, source, form, values)``:
    a run of declarations of one form becomes one ``Declare``."""
    out: list[Statement | Declare] = []
    for form, run in itertools.groupby(rows, key=_FORM):
        if form.declares:
            lines, sources, _, values = zip(*run)
            out.append(Declare(lines, sources, tuple(form.build(*zip(*values)))))
        else:
            out += [form.build(line, source, *values) for line, source, _, values in run]
    return out


def preflight(ast: ScriptAST) -> list[Fault]:
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
        # a path must be relative, hold no NUL and not climb above its start;
        # whether it lands inside the workspace a run is given is the kernel's check
        if isinstance(s, (WriteResults, WorkspaceStmt)) and (
                os.path.isabs(s.path) or "\0" in s.path
                or os.path.normpath(s.path).split(os.sep)[0] == os.pardir):
            out.append(Fault("isolation", s.line, f"artifact path escapes workspace: {s.path}"))
    return out


def lower_ir(model: IRModel) -> str:
    """Rule-based lowering of an audited model to a guaranteed-executable script.

    The model is the audited one, canonical as ``orchestrate`` returns it
    (``ir.canonicalize``): its entities are printed in list order. Output is
    byte-stable and uses workspace-relative artifact paths, so the same
    script runs in any allocated workspace.
    """
    try:
        lines = [_TEXT[ModelBegin](None)]
        for key in (Material, Section, Node, Element, BoundaryCondition, Load):
            lines += map(_TEXT[key], getattr(model, COLLECTIONS[key].attr))
        lines += [_TEXT[model.analysis.mode](model.analysis),
                  _TEXT[WriteResults](RESULTS_FILENAME), _TEXT[End](None)]
    except (KeyError, TypeError) as exc:  # an element kind, mode or count it cannot print
        raise LoweringError(f"model feature without a script form: {exc!r}") from None
    return "\n".join(lines) + "\n"
