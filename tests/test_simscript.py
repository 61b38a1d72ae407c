"""Script language: parsing, printing, preflight checks, lowering soundness."""

from __future__ import annotations

import random
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_frame_model
from vfea.ir import AnalysisSpec
from vfea.simscript import (ModelBegin, ScriptParseError, lower_ir,
                            parse_script, preflight, print_script)
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
        assert [s.line for s in ast.statements] == sorted(s.line for s in ast.statements)

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


def test_print_parse_round_trip():
    ast = parse_script(MINIMAL)
    reparsed = parse_script(print_script(ast))
    strip = lambda a: [replace(s, line=0) for s in a.statements]
    assert strip(reparsed) == strip(ast)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_print_parse_round_trip_property(seed):
    script = lower_ir(random_frame_model(random.Random(seed)), Path("."))
    ast = parse_script(script)
    assert print_script(ast) == script  # lowering already emits canonical text


class TestPreflight:
    def test_clean_script(self, tmp_path):
        assert preflight(parse_script(MINIMAL), tmp_path) == []

    def test_missing_analyze_is_lifecycle(self, tmp_path):
        ast = parse_script(MINIMAL.replace("analyze static\n", ""))
        violations = preflight(ast, tmp_path)
        assert [v.kind for v in violations] == ["lifecycle"]
        assert "no execution trigger" in violations[0].message

    def test_missing_end_is_lifecycle(self, tmp_path):
        ast = parse_script(MINIMAL.replace("end\n", ""))
        assert [v.kind for v in preflight(ast, tmp_path)] == ["lifecycle"]

    def test_root_deletion_is_safety(self, tmp_path):
        ast = parse_script(MINIMAL.replace("analyze static",
                                           "delete model root\nanalyze static"))
        violations = preflight(ast, tmp_path)
        assert [v.kind for v in violations] == ["safety"]
        assert violations[0].line == 9

    def test_absolute_escape_is_isolation(self, tmp_path):
        ws = tmp_path / "runs" / "task-7"
        ws.mkdir(parents=True)
        ast = parse_script(MINIMAL.replace("write_results results.res",
                                           "write_results /tmp/other/out.res"))
        violations = preflight(ast, ws)
        assert [v.kind for v in violations] == ["isolation"]

    def test_relative_escape_is_isolation(self, tmp_path):
        ast = parse_script(MINIMAL.replace("write_results results.res",
                                           "write_results ../out.res"))
        assert [v.kind for v in preflight(ast, tmp_path)] == ["isolation"]

    def test_workspace_statement_checked(self, tmp_path):
        ast = parse_script("model begin\nworkspace /etc\nanalyze static\n"
                           "write_results r.res\nend\n")
        assert any(v.kind == "isolation" for v in preflight(ast, tmp_path))

    def test_monotone_under_violating_statement_removal(self, tmp_path):
        text = MINIMAL.replace("analyze static",
                               "delete model root\nanalyze static") \
                      .replace("write_results results.res",
                               "write_results ../escape.res")
        ast = parse_script(text)
        before = preflight(ast, tmp_path)
        for v in before:
            if v.line is None:
                continue
            pruned = "\n".join(l for i, l in enumerate(text.splitlines(), 1) if i != v.line)
            after = preflight(parse_script(pruned), tmp_path)
            kind_count = lambda vs, k: sum(1 for x in vs if x.kind == k)
            assert kind_count(after, v.kind) < kind_count(before, v.kind)


class TestLowerIR:
    def test_round_trip_through_sandbox(self, cantilever, tmp_path):
        from vfea.sandbox import Limits, allocate_workspace, execute
        script = lower_ir(cantilever, tmp_path)
        ws = allocate_workspace(tmp_path, "lower")
        outcome = execute(script, ws, Limits())
        assert outcome.status == "COMPLETED"

    def test_topopt_defaults_to_conservative_volfrac(self, topopt_model):
        bare = replace(topopt_model,
                       analysis=AnalysisSpec(mode="topology_optimization"))
        script = lower_ir(bare, Path("."))
        assert "volfrac 0.5" in script
        assert "iters 50" in script

    def test_deterministic_output(self, topopt_model):
        assert lower_ir(topopt_model, Path(".")) == lower_ir(topopt_model, Path("."))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_lowering_soundness_property(seed):
    """Guaranteed-executable contract: every audited model lowers to a script
    that parses and preflights clean (containment is lexical, so the
    workspace root need not exist)."""
    root = Path("/srv/vfea-check/ws")
    model = random_frame_model(random.Random(seed))
    assert audit(model).clean
    script = lower_ir(model, root)
    ast = parse_script(script)
    assert preflight(ast, root) == []
