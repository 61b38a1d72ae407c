"""Script language: parsing, printing, preflight checks, lowering soundness."""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import simscript_reference as reference
from conftest import (cantilever_model, ground_structure, modal_cantilever,
                      random_frame_model, two_bar_truss)
from vfea.ir import (DOF_ORDER, ELEMENT_KINDS, MODES, AnalysisSpec, BoundaryCondition,
                     Element, Load, Material, Node, Section)
from vfea.simscript import (_STATEMENTS, _TEXT, Declare, End, LoweringError, ModelBegin,
                            ScriptParseError, WorkspaceStmt, WriteResults, lower_ir,
                            parse_script, preflight)
from vfea.validation import audit

MINIMAL = """\
model begin
material 1 210e9 0.3 7850
section 1 1 0.01 1e-6
node 1 0 0
node 2 2 0
element 1 frame 1 2 1
fix 1 ux,uy,rz
load 2 0 -1000 0
analyze static
write_results results.res
end
"""


class TestParse:
    def test_minimal_script_statement_order(self):
        ast = parse_script(MINIMAL)
        kinds = [type(s).__name__ for s in ast.statements]
        assert kinds[0] == "ModelBegin"
        assert kinds[-3:] == ["Analyze", "WriteResults", "End"]
        lines = [line for _, line, _, _ in _lines(ast)]
        assert lines == sorted(lines) == list(range(1, 12))

    def test_unknown_statement_is_parse_error(self):
        bad = MINIMAL.replace("analyze static", "mesh_edges part1")
        with pytest.raises(ScriptParseError) as err:
            parse_script(bad)
        assert err.value.reason == "unknown statement"
        assert err.value.line == 9
        assert err.value.token == "mesh_edges"

    def test_empty_script(self):
        with pytest.raises(ScriptParseError) as err:
            parse_script("   \n# only a comment\n")
        assert "empty script" in err.value.reason

    def test_comments_and_blank_lines_skipped(self):
        ast = parse_script("# header\n\nmodel begin  # trailing\nend\n")
        assert isinstance(ast.statements[0], ModelBegin)
        assert ast.statements[0].line == 3

    def test_commented_declarations_are_one_run(self):
        ast = parse_script("model begin\nnode 1 0 0  # left\n# right:\nnode 2 1.5 0\nend\n")
        run = ast.statements[1]
        assert (run.lines, run.sources) == ((2, 4), ("node 1 0 0", "node 2 1.5 0"))
        assert run.entities == (Node(1, 0.0, 0.0), Node(2, 1.5, 0.0))

    def test_bad_token_in_a_run_names_its_line(self):
        with pytest.raises(ScriptParseError) as err:
            parse_script("model begin\nnode 1 0 0  # ok\nnode 2 x 0\nnode 3 0 y\nend\n")
        assert (err.value.line, err.value.token, err.value.reason) == (3, "x", "expected a number")

    @pytest.mark.parametrize("brk", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                     "\u2028", "\u2029"])
    def test_only_newlines_end_a_line(self, brk):
        # other line breaks are whitespace; \r and \r\n end lines as \n does
        with pytest.raises(ScriptParseError) as err:
            parse_script(f"model begin{brk}\nfoo 1{brk}\r\nbar\rbaz\n")
        assert (err.value.line, err.value.token) == (2, "foo")
        assert [s.line for s in parse_script(f"model{brk}begin\r\rend\r\n").statements] == [1, 3]

    def test_bad_arity(self):
        with pytest.raises(ScriptParseError):
            parse_script("node 1 0\n")

    def test_bad_number(self):
        with pytest.raises(ScriptParseError):
            parse_script("node 1 zero 0\n")

    def test_unknown_dof(self):
        with pytest.raises(ScriptParseError):
            parse_script("fix 1 uz\n")

    def test_delete_targets(self):
        ast = parse_script("model begin\ndelete model root\ndelete element 3\nend\n")
        assert ast.statements[1].target == ("model", "root")
        assert ast.statements[2].target == ("element", "3")
        with pytest.raises(ScriptParseError):
            parse_script("delete universe 1\n")

    def test_analyze_variants(self):
        ast = parse_script("analyze modal count 3\nanalyze topopt volfrac 0.4 iters 20\n")
        modal, topopt = ast.statements
        assert (modal.spec.mode, modal.spec.modal_count) == ("modal", 3)
        assert (topopt.spec.mode, topopt.spec.opt_volume_fraction,
                topopt.spec.opt_max_iterations) == ("topology_optimization", 0.4, 20)


# Values to print through each form of the statement table, by its key:
# float and id edge cases, every dof subset, both element kinds, sections
# with and without inertia, and topology optimisation with and without its
# parameters.
_INTS = st.one_of(st.integers(), st.sampled_from([2**63, 2**64 + 1, -2**63 - 1]))
_FLOATS = st.one_of(st.floats(allow_nan=False),
                    st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308]))
_WORDS = st.text(st.characters(blacklist_categories=("Z", "C"), blacklist_characters="#"),
                 min_size=1).filter(lambda w: w.split() == [w])
_VALUES = {
    ModelBegin: st.none(),
    Material: st.builds(Material, _INTS, _FLOATS, _FLOATS, _FLOATS),
    Section: st.builds(Section, _INTS, _INTS, _FLOATS, st.none() | _FLOATS),
    Node: st.builds(Node, _INTS, _FLOATS, _FLOATS),
    Element: st.builds(Element, _INTS, st.sampled_from(ELEMENT_KINDS),
                       st.tuples(_INTS, _INTS), _INTS),
    BoundaryCondition: st.builds(BoundaryCondition, _INTS,
                                 st.frozensets(st.sampled_from(DOF_ORDER), min_size=1)),
    Load: st.builds(Load, _INTS, _FLOATS, _FLOATS, _FLOATS),
    WorkspaceStmt: _WORDS,
    "static": st.just(AnalysisSpec("static")),
    "modal": st.builds(lambda n: AnalysisSpec("modal", modal_count=n), _INTS),
    "topology_optimization": st.builds(
        lambda v, n: AnalysisSpec("topology_optimization", opt_volume_fraction=v,
                                  opt_max_iterations=n), st.none() | _FLOATS, st.none() | _INTS),
    WriteResults: _WORDS,
    "model": st.just(("model", "root")),
    "element": st.tuples(st.just("element"), _INTS.map(str)),
    "node": st.tuples(st.just("node"), _INTS.map(str)),
    End: st.none(),
}


def _carried(stmt):
    """What a statement carries past its line and source: its entity, spec,
    path or target, or None."""
    return next((getattr(stmt, f.name) for f in fields(stmt)
                 if f.name not in ("line", "source")), None)


def _lines(ast):
    """A program's statements one line each, as (class name, line, source,
    what it carries): a run of declarations gives one ``Declare`` per line.
    A statement of the reference parser carries no source."""
    for s in ast.statements:
        if isinstance(s, Declare):
            yield from zip(itertools.repeat("Declare"), s.lines, s.sources, s.entities)
        else:
            yield type(s).__name__, s.line, getattr(s, "source", None), _carried(s)


def _with_priors(value):
    """A spec with each unset parameter of its mode as its prior, as the
    script prints it."""
    if isinstance(value, AnalysisSpec):
        row = MODES[value.mode]
        return replace(value, **{p.attr: v for p, v in zip(row.params, row.values(value))})
    return value


def test_every_form_has_values_to_print():
    assert set(_VALUES) == {form.key for form in _STATEMENTS}
    assert len(_TEXT) == len(_STATEMENTS)


@pytest.mark.parametrize("form", _STATEMENTS, ids=lambda f: "-".join(f.words))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_each_form_parses_what_it_prints(form, data):
    value = data.draw(_VALUES[form.key])
    line = form.text(value)
    ((_, lineno, source, carried),) = _lines(parse_script(line))
    assert (lineno, source) == (1, line)
    assert carried == _with_priors(value)
    assert form.text(carried) == line  # keeps what equality cannot see, like -0.0


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_lowered_script_is_its_statements_sources(seed):
    script = lower_ir(random_frame_model(random.Random(seed)))
    assert "\n".join(source for _, _, source, _ in _lines(parse_script(script))) + "\n" == script


def _shape(tokens, optional: bool) -> tuple[str, ...]:
    shape = tuple(t if isinstance(t, str) else "<>" for t in tokens)
    return shape[:-1] + ("[<>]",) if optional else shape


def test_documented_statements_are_the_table():
    """The statement block of docs/simscript.md lists exactly the table's
    forms: their keywords, and where each takes an argument."""
    doc = (Path(__file__).resolve().parents[1] / "docs" / "simscript.md").read_text()
    block = doc.split("## Statements", 1)[1].split("```")[1]
    documented = set()
    for line in block.splitlines():
        for form in filter(None, line.split("#", 1)[0].split(" | ")):
            tokens = form.split()
            documented.add(tuple(
                t if re.fullmatch(r"[a-z_]+", t) else "[<>]" if t.startswith("[") else "<>"
                for t in tokens))
    table = {_shape(f.tokens, len(f.sizes) == 2) for f in _STATEMENTS}
    assert len(table) == len(_STATEMENTS)
    assert documented == table


# Lines for the oracle below to insert: every analyze and delete form,
# sections with 3 and 4 arguments, bad dofs, and misshapen forms of each.
_ORACLE_LINES = [
    "analyze static", "analyze modal count 3", "analyze topopt volfrac 0.4 iters 20",
    "delete model root", "delete element 3", "delete node 2",
    "section 1 1 0.01", "section 2 1 0.01 1e-6", "fix 1 uz", "fix 1 ux,,uy", "fix 1 ux,ux",
    "fix 1 UX", "fix 1 rz,ux,uy,rz", "fix x uz", "section x 1 0.01 bad",
    "element x beam 1 2 1", "element 1 truss x 2 y", "analyze", "analyze static 1",
    "analyze dynamic", "analyze modal", "analyze modal cnt 3", "analyze modal count 3 4",
    "analyze modal count x", "analyze topopt volfrac x iters y",
    "analyze topopt iters 10 volfrac 0.5", "delete", "delete model", "delete model node",
    "delete element", "delete element x", "delete universe 1", "delete node 1 2",
    "model", "model end", "model begin now", "end now", "workspace", "workspace a b",
    "write_results", "node", "load 1 0 0", "material 1 2e11 0.3 7850 1",
]
# Tokens to put in place of another: words where numbers belong, numbers
# that Python reads in more than one spelling, and other heads.
_ORACLE_WORDS = ["zero", "x", "frame", "truss", "ux", "begin", "count", "nan", "-inf", "1.5",
                 "-3", "1e400", "0x10", "1_000", "\u0661", "node", "mesh_edges", "9" * 5000]


@st.composite
def _mutated_scripts(draw):
    """A lowered script with a few tokens dropped, duplicated or replaced,
    heads changed, lines inserted, comments and runs of whitespace added,
    and CRLF line ends."""
    model = draw(st.sampled_from([cantilever_model(), two_bar_truss(), modal_cantilever(),
                                  ground_structure(iters=2)])
                 | st.integers(0, 10_000).map(lambda n: random_frame_model(random.Random(n))))
    lines = lower_ir(model).splitlines()
    for _ in range(draw(st.integers(0, 5))):
        at = draw(st.integers(0, len(lines) - 1))
        toks = lines[at].split(" ")
        i = draw(st.integers(0, len(toks) - 1))
        edit = draw(st.sampled_from(["drop", "duplicate", "replace", "insert", "comment",
                                     "whitespace", "text"]))
        if edit == "drop":
            del toks[i]
        elif edit == "duplicate":
            toks.insert(i, toks[i])
        elif edit == "replace":
            toks[i] = draw(st.sampled_from(_ORACLE_WORDS))
        elif edit == "insert":
            lines.insert(at, draw(st.sampled_from(_ORACLE_LINES)))
        elif edit == "comment":
            toks.insert(i, draw(st.sampled_from(["#", "# note", "#x"])))
        elif edit == "whitespace":
            toks[i] = draw(st.sampled_from(["\t", "  ", " \t "])).join(["", toks[i], ""])
        else:
            lines.insert(at, draw(st.text(max_size=20)))
        if edit not in ("insert", "text"):
            lines[at] = " ".join(toks)
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"


def _parsed(parse, text: str):
    """The statements without their source text, or the parse error."""
    try:
        ast = parse(text)
    except ScriptParseError as exc:
        return ("error", exc.line, exc.token, exc.reason)
    return [(name, line, repr(carried)) for name, line, _, carried in _lines(ast)]


@settings(max_examples=500, deadline=None)
@given(_mutated_scripts())
def test_parser_agrees_with_the_reference(script):
    assert _parsed(parse_script, script) == _parsed(reference.parse_script, script)


class TestPreflight:
    def test_clean_script(self):
        assert preflight(parse_script(MINIMAL)) == []

    def test_missing_analyze_is_lifecycle(self):
        ast = parse_script(MINIMAL.replace("analyze static\n", ""))
        violations = preflight(ast)
        assert [v.kind for v in violations] == ["lifecycle"]
        assert "no execution trigger" in violations[0].message

    def test_missing_end_is_lifecycle(self):
        ast = parse_script(MINIMAL.replace("end\n", ""))
        assert [v.kind for v in preflight(ast)] == ["lifecycle"]

    def test_root_deletion_is_safety(self):
        ast = parse_script(MINIMAL.replace("analyze static",
                                           "delete model root\nanalyze static"))
        violations = preflight(ast)
        assert [v.kind for v in violations] == ["safety"]
        assert violations[0].line == 9

    def test_absolute_escape_is_isolation(self):
        ast = parse_script(MINIMAL.replace("write_results results.res",
                                           "write_results /tmp/other/out.res"))
        violations = preflight(ast)
        assert [v.kind for v in violations] == ["isolation"]

    def test_relative_escape_is_isolation(self):
        ast = parse_script(MINIMAL.replace("write_results results.res",
                                           "write_results ../out.res"))
        assert [v.kind for v in preflight(ast)] == ["isolation"]

    @pytest.mark.parametrize("path, escapes", [
        ("results.res", False), ("sub/../r.res", False), (".", False), ("a/./b/", False),
        ("sub/../../r.res", True), ("..", True), ("../", True), ("a\0b", True),
        ("/tmp/ws/task-0001/results.res", True),
    ])
    def test_a_path_is_relative_and_never_climbs_above_its_start(self, path, escapes):
        # whether it lands inside a given workspace is the kernel's check
        ast = parse_script(MINIMAL.replace("write_results results.res", f"write_results {path}"))
        assert [v.kind for v in preflight(ast)] == ["isolation"] * escapes

    def test_workspace_statement_checked(self):
        ast = parse_script("model begin\nworkspace /etc\nanalyze static\n"
                           "write_results r.res\nend\n")
        assert any(v.kind == "isolation" for v in preflight(ast))

    def test_monotone_under_violating_statement_removal(self):
        text = MINIMAL.replace("analyze static",
                               "delete model root\nanalyze static") \
                      .replace("write_results results.res",
                               "write_results ../escape.res")
        ast = parse_script(text)
        before = preflight(ast)
        for v in before:
            if v.line is None:
                continue
            pruned = "\n".join(l for i, l in enumerate(text.splitlines(), 1) if i != v.line)
            after = preflight(parse_script(pruned))
            kind_count = lambda vs, k: sum(1 for x in vs if x.kind == k)
            assert kind_count(after, v.kind) < kind_count(before, v.kind)


class TestLowerIR:
    def test_round_trip_through_sandbox(self, cantilever, tmp_path):
        from vfea.sandbox import Limits, allocate_workspace, execute
        script = lower_ir(cantilever)
        ws = allocate_workspace(tmp_path, "lower")
        outcome = execute(script, ws, Limits())
        assert outcome.status == "COMPLETED"

    def test_topopt_defaults_to_conservative_volfrac(self, topopt_model):
        bare = replace(topopt_model,
                       analysis=AnalysisSpec(mode="topology_optimization"))
        script = lower_ir(bare)
        assert "volfrac 0.5" in script
        assert "iters 50" in script

    def test_deterministic_output(self, topopt_model):
        assert lower_ir(topopt_model) == lower_ir(topopt_model)

    def test_modal_spec_without_count_does_not_lower(self, cantilever):
        # an unset kept parameter has no script form: ``{:d}`` refuses None
        with pytest.raises(LoweringError, match=r"TypeError\('unsupported format string "
                                                r"passed to NoneType\.__format__'\)"):
            lower_ir(replace(cantilever, analysis=AnalysisSpec(mode="modal")))

    def test_element_kind_without_script_word_does_not_lower(self, cantilever):
        shell = replace(cantilever, elements=tuple(replace(e, kind="shell")
                                                   for e in cantilever.elements))
        with pytest.raises(LoweringError, match=r"KeyError\('shell'\)"):
            lower_ir(shell)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_lowering_soundness_property(seed):
    """Guaranteed-executable contract: every audited model lowers to a script
    that parses and preflights clean."""
    model = random_frame_model(random.Random(seed))
    assert audit(model).clean
    script = lower_ir(model)
    ast = parse_script(script)
    assert preflight(ast) == []
