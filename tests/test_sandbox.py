"""Run isolation: workspace allocation, interpreter semantics, artifacts."""

from __future__ import annotations

import copy
import functools
import json
import math
import random
import re
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import interpret_reference as reference
from conftest import (REPO_ROOT, cantilever_model, ground_structure, modal_cantilever,
                      random_frame_model, two_bar_truss)
from vfea import certify, sandbox, simscript, solver
from vfea.ir import (ANALYSIS_MODES, ELEMENT_KINDS, MODES, AnalysisSpec, BoundaryCondition,
                     Element, Load, Node, deserialize)
from vfea.perception import PerceptionError, parse_context
from vfea.sandbox import (MAX_MODES, MAX_OC_ITERATIONS, ExecutionOutcome, Limits,
                          ResultsError, WorkspaceError,
                          _interpret, allocate_workspace, execute, read_results,
                          write_results_file)
from vfea.simscript import Fault, ScriptAST, lower_ir, parse_script
from vfea.solver import TopoResult, optimize_topology, solve_modal, solve_static
from vfea.synthesis import verify_results

DOCS = Path(__file__).resolve().parents[1] / "docs"
sys.path.insert(0, str(REPO_ROOT / "perfbench"))
import workloads  # noqa: E402

# One script edit per outcome kind of an execution, applied to the lowered
# cantilever: (kind, old text, new text, limits).
OUTCOME_KINDS = [
    ("parse", "model begin", "model begin\nmesh_edges part1", Limits()),
    ("lifecycle", "\nend", "", Limits()),
    ("kernel-protection", "analyze static", "delete model root\nanalyze static", Limits()),
    ("isolation", "results.res", "../stolen.res", Limits()),
    ("state", "analyze static", "delete node 99\nanalyze static", Limits()),
    ("model", "analyze static", "analyze modal count 0", Limits()),
    ("solver", "fix 1 ux,uy,rz", "fix 1 ux", Limits()),
    ("sandbox", "write_results results.res", "write_results .", Limits()),
    ("budget", "", "", Limits(max_statements=3)),
    # a form feed is whitespace and a lone \r ends a line, in the child too
    ("parse", "model begin", "model begin\x0c\rmesh_edges part1", Limits()),
]


def _analyze_line(script: str) -> int:
    return 1 + next(i for i, line in enumerate(script.splitlines())
                    if line.startswith("analyze "))


def _many_modes() -> str:
    """101 modes asked of 40 frame members split into four elements each."""
    base = modal_cantilever(count=MAX_MODES + 1)
    return lower_ir(replace(base, nodes=tuple(Node(i + 1, 0.5 * i, 0.0) for i in range(41)),
                            elements=tuple(Element(i + 1, "frame_beam", (i + 1, i + 2), 1)
                                           for i in range(40))))


_CANTILEVER = lower_ir(cantilever_model())
_MODES = _many_modes()
_OC = lower_ir(ground_structure(iters=MAX_OC_ITERATIONS + 1))
# One case per budget stop: (script, limits, blamed line, message). The
# line is the last one run; the statement budget stops once between
# statements and once inside the run of node declarations (lines 4-5).
BUDGET_STOPS = {
    "statements": (_CANTILEVER, Limits(max_statements=1), 1, "statement budget (1) exceeded"),
    "statements-in-a-run": (_CANTILEVER, Limits(max_statements=4), 4,
                            "statement budget (4) exceeded"),
    # nothing runs in a nanosecond: the first check stops the run
    "wall-time": (_CANTILEVER, Limits(max_wall_time=1e-9), None,
                  "wall time budget (1e-09s) exceeded"),
    "solver-dofs": (_CANTILEVER, Limits(max_solver_dofs=2), _analyze_line(_CANTILEVER),
                    "solver budget exceeded (6 > 2 dofs)"),
    "modes": (_MODES, Limits(), _analyze_line(_MODES),
              f"mode budget exceeded ({MAX_MODES + 1} > {MAX_MODES} modes)"),
    "oc-iterations": (_OC, Limits(), _analyze_line(_OC),
                      f"iteration budget exceeded ({MAX_OC_ITERATIONS + 1} > "
                      f"{MAX_OC_ITERATIONS} iterations)"),
    # the log line of a child stopped from outside is as it was, and names
    # the wall-time budget without its limit
    "child-timeout": (_CANTILEVER, Limits(), None, "child process exceeded the wall time budget"),
}


@pytest.fixture()
def cantilever_script(tmp_path):
    return lower_ir(cantilever_model())


class TestWorkspace:
    def test_same_task_id_gets_distinct_directories(self, tmp_path):
        a = allocate_workspace(tmp_path, "job")
        b = allocate_workspace(tmp_path, "job")
        assert a != b
        assert a.is_dir() and b.is_dir()

    def test_fresh_workspace_is_empty(self, tmp_path):
        ws = allocate_workspace(tmp_path, "job")
        assert list(ws.iterdir()) == []

    def test_unwritable_root_raises(self, tmp_path):
        # a plain file cannot host workspaces (permission bits are unreliable
        # when the test runs as root)
        root = tmp_path / "occupied"
        root.write_text("not a directory")
        with pytest.raises(WorkspaceError):
            allocate_workspace(root, "job")

    def test_path_separator_in_task_id_rejected(self, tmp_path):
        with pytest.raises(WorkspaceError):
            allocate_workspace(tmp_path, "../escape")

    @pytest.mark.parametrize("task_id", ["", ".", "..", "a\0b", "a\udc80b"])
    def test_task_id_that_names_no_file_rejected(self, tmp_path, task_id):
        with pytest.raises(WorkspaceError):
            allocate_workspace(tmp_path / "root", task_id)
        assert not (tmp_path / "root").exists()


class TestExecute:
    def test_golden_run_completes(self, tmp_path, cantilever_script):
        ws = allocate_workspace(tmp_path, "gold")
        out = execute(cantilever_script, ws, Limits())
        assert out.status == "COMPLETED"
        assert out.results_path is not None and out.results_path.exists()
        assert out.log.rstrip().endswith("STATUS: COMPLETED")
        assert (ws / "script.sim").read_text() == cantilever_script
        assert (ws / "run.log").read_text() == out.log

    def test_kernel_protection_without_preflight(self, tmp_path, cantilever_script):
        bad = cantilever_script.replace("analyze static",
                                        "delete model root\nanalyze static")
        ws = allocate_workspace(tmp_path, "unsafe")
        out = execute(bad, ws, Limits())
        assert out.status == "FAILED"
        assert out.runtime_error.kind == "kernel-protection"
        offending = 1 + bad.splitlines().index("delete model root")
        assert out.runtime_error.line == offending

    def test_statement_budget_aborts(self, tmp_path, cantilever_script):
        ws = allocate_workspace(tmp_path, "budget")
        out = execute(cantilever_script, ws, Limits(max_statements=1))
        assert out.status == "ABORTED"
        assert out.runtime_error == Fault("budget", 1, "statement budget (1) exceeded")
        assert "STATUS: ABORTED" in out.log

    def test_solver_dof_budget_aborts(self, tmp_path, cantilever_script):
        ws = allocate_workspace(tmp_path, "dofs")
        out = execute(cantilever_script, ws, Limits(max_solver_dofs=2))
        assert out.status == "ABORTED"

    @pytest.mark.parametrize("mode", ["inprocess", "subprocess"])
    def test_modal_dof_budget_counts_subdivided_model(self, tmp_path, mode):
        # 6 dofs as drawn, 15 once the frame is split into four elements
        script = lower_ir(modal_cantilever())
        out = execute(script, allocate_workspace(tmp_path, "refined"),
                      Limits(max_solver_dofs=10), mode=mode)
        assert out.status == "ABORTED"
        assert "(15 > 10 dofs)" in out.log

    @pytest.mark.parametrize("mode, dofs", [("modal", 17), ("static", 8)])
    def test_dof_count_splits_frame_members_only(self, tmp_path, mode, dofs):
        # a frame cantilever (6 dofs) braced by a truss bar to a pinned node
        # (2 more); modal analysis adds three interior nodes to the frame only
        base = cantilever_model()
        model = replace(base, nodes=(*base.nodes, Node(3, 0.0, 1.0)),
                        elements=(*base.elements, Element(2, "truss_bar", (3, 2), 1)),
                        boundary_conditions=(*base.boundary_conditions,
                                             BoundaryCondition(3, frozenset({"ux", "uy"}))))
        if mode == "modal":
            model = replace(model, loads=(), analysis=AnalysisSpec(mode="modal", modal_count=3))
        out = execute(lower_ir(model), allocate_workspace(tmp_path, mode), Limits())
        assert out.status == "COMPLETED"
        assert f"analysis complete ({dofs} dofs)" in out.log

    @pytest.mark.parametrize("members,status", [(4, "COMPLETED"), (40, "ABORTED")])
    def test_mode_budget_counts_modes_the_solver_computes(self, tmp_path, members, status):
        # 101 modes asked of a cantilever split into four elements per member:
        # 4 members give 51 dofs (48 modes and a note), 40 members 483 dofs
        base = modal_cantilever(count=MAX_MODES + 1)
        model = replace(base, nodes=tuple(Node(i + 1, 0.5 * i, 0.0) for i in range(members + 1)),
                        elements=tuple(Element(i + 1, "frame_beam", (i + 1, i + 2), 1)
                                       for i in range(members)))
        script = lower_ir(model)
        out = execute(script, allocate_workspace(tmp_path, "modes"), Limits())
        assert out.status == status
        if status == "ABORTED":
            assert f"({MAX_MODES + 1} > {MAX_MODES} modes)" in out.log
        else:
            assert len(read_results(out.results_path).frequencies_hz) < MAX_MODES

    @pytest.mark.parametrize("mode", ["inprocess", "subprocess"])
    def test_mode_budget_counts_free_dofs(self, tmp_path, mode):
        # a truss grid of 17 x 3 nodes on a pin and a roller: 102 solved
        # dofs, 99 of them free, so 200 modes asked give 99 and a note
        node = {(i, j): 1 + 3 * i + j for i in range(17) for j in range(3)}
        pairs = [(node[i, j], node[i + di, j + dj]) for (i, j) in node
                 for di, dj in ((1, 0), (0, 1), (1, 1)) if (i + di, j + dj) in node]
        model = replace(
            modal_cantilever(count=200),
            nodes=tuple(Node(n, float(i), float(j)) for (i, j), n in node.items()),
            elements=tuple(Element(k, "truss_bar", p, 1) for k, p in enumerate(pairs, 1)),
            boundary_conditions=(BoundaryCondition(node[0, 0], frozenset({"ux", "uy"})),
                                 BoundaryCondition(node[16, 0], frozenset({"uy"}))))
        out = execute(lower_ir(model), allocate_workspace(tmp_path, "free"), Limits(), mode=mode)
        assert out.status == "COMPLETED"
        assert "analysis complete (102 dofs)" in out.log
        result = read_results(out.results_path)
        assert len(result.frequencies_hz) == 99
        assert result.note == "requested 200 modes but only 99 free dofs are available"

    @pytest.mark.parametrize("stop, mode", [
        (stop, mode) for stop in BUDGET_STOPS for mode in ("inprocess", "subprocess")
        if stop != "child-timeout" or mode == "subprocess"])
    def test_every_budget_stop_aborts_with_a_budget_fault(self, tmp_path, monkeypatch,
                                                          stop, mode):
        script, limits, line, message = BUDGET_STOPS[stop]
        if stop == "child-timeout":
            def timed_out(cmd, **kwargs):
                raise subprocess.TimeoutExpired(cmd, kwargs["timeout"])

            monkeypatch.setattr(subprocess, "run", timed_out)
        ws = allocate_workspace(tmp_path, stop)
        out = execute(script, ws, limits, mode=mode)
        assert (out.status, out.results_path) == ("ABORTED", None)
        assert out.runtime_error == Fault("budget", line, message)
        # the abort line is the one the log had when a budget abort carried no fault
        assert [l for l in out.log.splitlines() if not l.startswith("[line ")] == \
            [f"abort: {message}", "STATUS: ABORTED"]
        assert (ws / "run.log").read_text() == out.log

    @pytest.mark.parametrize("mode", ["inprocess", "subprocess"])
    def test_oc_iteration_budget(self, tmp_path, mode):
        script = lower_ir(ground_structure(iters=MAX_OC_ITERATIONS + 1))
        out = execute(script, allocate_workspace(tmp_path, "oc"), Limits(), mode=mode)
        assert out.status == "ABORTED" and out.runtime_error.kind == "budget"
        assert f"({MAX_OC_ITERATIONS + 1} > {MAX_OC_ITERATIONS} iterations)" in out.log
        script = lower_ir(ground_structure(iters=MAX_OC_ITERATIONS))
        assert execute(script, allocate_workspace(tmp_path, "oc"), Limits(),
                       mode=mode).status == "COMPLETED"

    @pytest.mark.parametrize("mode", ["inprocess", "subprocess"])
    @pytest.mark.parametrize("budget", [
        {"max_statements": 2.5}, {"max_statements": math.nan}, {"max_statements": 0},
        {"max_statements": True}, {"max_solver_dofs": math.nan}, {"max_solver_dofs": 1.5},
        {"max_solver_dofs": math.inf}, {"max_wall_time": math.nan}, {"max_wall_time": math.inf},
        {"max_wall_time": 0.0}, {"max_wall_time": 10 ** 400}, {"max_wall_time": "60"}])
    def test_a_budget_that_is_no_count_or_no_finite_time_is_refused(
            self, tmp_path, cantilever_script, mode, budget):
        # each once crashed a run (a slice index, a subprocess timeout) or
        # switched its own check off (NaN compares false)
        with pytest.raises(ValueError, match="budgets must be counts"):
            execute(cantilever_script, allocate_workspace(tmp_path, "limits"), Limits(**budget),
                    mode=mode)

    @pytest.mark.parametrize("mode", ["inprocess", "subprocess"])
    def test_a_wall_time_longer_than_subprocess_can_wait_runs(self, tmp_path, cantilever_script,
                                                              mode):
        for wall in (1, 1e12, 1e308):
            out = execute(cantilever_script, allocate_workspace(tmp_path, "long"),
                          Limits(max_statements=100, max_solver_dofs=6, max_wall_time=wall),
                          mode=mode)
            assert out.status == "COMPLETED"

    def test_parse_failure_reports_line(self, tmp_path):
        ws = allocate_workspace(tmp_path, "parse")
        out = execute("model begin\nmesh_edges part1\nend\n", ws, Limits())
        assert out.status == "FAILED"
        assert out.runtime_error.kind == "parse"
        assert out.runtime_error.line == 2

    def test_idle_run_fails_lifecycle(self, tmp_path, cantilever_script):
        idle = "\n".join(l for l in cantilever_script.splitlines()
                         if not l.startswith(("analyze", "write_results"))) + "\n"
        ws = allocate_workspace(tmp_path, "idle")
        out = execute(idle, ws, Limits())
        assert out.status == "FAILED"
        assert out.runtime_error.kind == "lifecycle"
        assert "no execution trigger" in out.runtime_error.message

    def test_missing_end_fails_lifecycle(self, tmp_path, cantilever_script):
        out = execute(cantilever_script.replace("\nend", ""),
                      allocate_workspace(tmp_path, "noend"), Limits())
        assert out.status == "FAILED"
        assert out.runtime_error.kind == "lifecycle"

    def test_isolation_enforced_at_runtime(self, tmp_path, cantilever_script):
        evil = cantilever_script.replace("write_results results.res",
                                         f"write_results {tmp_path}/stolen.res")
        ws = allocate_workspace(tmp_path / "runs", "iso")
        out = execute(evil, ws, Limits())
        assert out.status == "FAILED"
        assert out.runtime_error.kind == "isolation"
        assert not (tmp_path / "stolen.res").exists()

    def test_no_writes_outside_workspace(self, tmp_path, cantilever_script):
        outside = tmp_path / "outside"
        outside.mkdir()
        sentinel = outside / "keep.txt"
        sentinel.write_text("before")
        snapshot = {p: p.stat().st_mtime_ns for p in outside.rglob("*")}
        ws = allocate_workspace(tmp_path / "runs", "iso2")
        execute(cantilever_script, ws, Limits())
        assert {p: p.stat().st_mtime_ns for p in outside.rglob("*")} == snapshot
        produced = set(p.relative_to(ws) for p in ws.rglob("*"))
        assert produced == {Path("script.sim"), Path("run.log"), Path("results.res")}

    def test_determinism_modulo_wall_time(self, tmp_path, cantilever_script):
        out1 = execute(cantilever_script, allocate_workspace(tmp_path, "d"), Limits())
        out2 = execute(cantilever_script, allocate_workspace(tmp_path, "d"), Limits())
        assert out1.status == out2.status
        assert out1.log == out2.log
        assert out1.results_path.read_text() == out2.results_path.read_text()

    def test_log_lists_every_executed_statement(self, tmp_path, cantilever_script):
        ws = allocate_workspace(tmp_path, "log")
        out = execute(cantilever_script, ws, Limits())
        n_statements = len([l for l in cantilever_script.splitlines() if l.strip()])
        logged = {int(m) for m in re.findall(r"^\[line (\d+)\]", out.log, re.M)}
        assert logged == set(range(1, n_statements + 1))

    def test_error_line_is_last_executed(self, tmp_path, cantilever_script):
        bad = cantilever_script.replace("analyze static",
                                        "delete model root\nanalyze static")
        out = execute(bad, allocate_workspace(tmp_path, "last"), Limits())
        logged = [int(m) for m in re.findall(r"^\[line (\d+)\]", out.log, re.M)]
        assert out.runtime_error.line == logged[-1]

    def test_delete_element_then_analyze(self, tmp_path):
        # deleting a real element leaves a dangling-free model: still valid here
        script = lower_ir(ground_structure(iters=2))
        script = script.replace("analyze topopt", "delete element 36\nanalyze topopt")
        out = execute(script, allocate_workspace(tmp_path, "del"), Limits())
        assert out.status == "COMPLETED"
        assert isinstance(read_results(out.results_path), TopoResult)

    def test_write_before_analyze_fails(self, tmp_path, cantilever_script):
        lines = cantilever_script.splitlines()
        lines.insert(1, "write_results early.res")
        out = execute("\n".join(lines) + "\n",
                      allocate_workspace(tmp_path, "early"), Limits())
        assert out.status == "FAILED"
        assert out.runtime_error.kind == "state"

    def test_modal_script_round_trip(self, tmp_path):
        script = lower_ir(modal_cantilever())
        out = execute(script, allocate_workspace(tmp_path, "modal"), Limits())
        assert out.status == "COMPLETED"
        rs = read_results(out.results_path)
        assert len(rs.frequencies_hz) == 3

    def test_log_echoes_each_statement_as_written(self, tmp_path, cantilever_script):
        # without its comment and surrounding whitespace, and not reprinted
        script = cantilever_script.replace("fix 1 ux,uy,rz",
                                           "  fix 1 rz,ux  # pinned\nfix\t1  uy,ux")
        out = execute(script, allocate_workspace(tmp_path, "fix"), Limits())
        assert out.status == "COMPLETED"
        assert "[line 7] fix 1 rz,ux\n[line 8] fix\t1  uy,ux\n" in out.log

    def test_empty_program_is_a_lifecycle_failure(self, tmp_path):
        ws = allocate_workspace(tmp_path, "empty")
        out = execute("", ws, Limits(), program=ScriptAST(()))
        assert out.status == "FAILED"
        assert out.runtime_error == Fault(
            "lifecycle", None, "no termination signal: script ran out without an end statement")
        assert (ws / "run.log").read_text() == out.log

    def test_subprocess_mode_matches_inprocess(self, tmp_path, cantilever_script):
        ws_in = allocate_workspace(tmp_path, "inproc")
        ws_sub = allocate_workspace(tmp_path, "subproc")
        out_in = execute(cantilever_script, ws_in, Limits())
        out_sub = execute(cantilever_script, ws_sub, Limits(), mode="subprocess")
        assert out_sub.status == out_in.status == "COMPLETED"
        assert out_sub.log == out_in.log
        assert out_sub.results_path.read_text() == out_in.results_path.read_text()

    def test_subprocess_mode_kernel_protection(self, tmp_path, cantilever_script):
        bad = cantilever_script.replace("analyze static",
                                        "delete model root\nanalyze static")
        out = execute(bad, allocate_workspace(tmp_path, "subbad"), Limits(),
                      mode="subprocess")
        assert out.status == "FAILED"
        assert out.runtime_error.kind == "kernel-protection"

    @pytest.mark.parametrize("kind, old, new, limits", OUTCOME_KINDS)
    def test_execution_modes_agree_on_every_outcome_kind(self, tmp_path, cantilever_script,
                                                         kind, old, new, limits):
        script = cantilever_script.replace(old, new)
        outs = [execute(script, allocate_workspace(tmp_path / "runs", mode), limits, mode=mode)
                for mode in ("inprocess", "subprocess")]
        assert outs[0].status == ("ABORTED" if kind == "budget" else "FAILED")
        assert outs[0].runtime_error.kind == kind
        got = [(o.status, o.runtime_error, o.log) for o in outs]
        assert got[0] == got[1]

    # a script that does not parse has no program to hand over: execute
    # parses it itself, which the test above covers
    @pytest.mark.parametrize("kind, old, new, limits",
                             [case for case in OUTCOME_KINDS if case[0] != "parse"])
    def test_parsed_program_runs_like_its_text(self, tmp_path, cantilever_script,
                                               kind, old, new, limits):
        script = cantilever_script.replace(old, new)
        program = parse_script(script)
        outs, files = [], []
        for given in (None, program):
            ws = allocate_workspace(tmp_path / "runs", "program")
            outs.append(execute(script, ws, limits, program=given))
            files.append({p.relative_to(ws): p.read_bytes()
                          for p in ws.rglob("*") if p.is_file()})
        assert outs[1].runtime_error.kind == kind
        got = [(o.status, o.runtime_error, o.log) for o in outs]
        assert got[0] == got[1]
        assert files[0] == files[1]
        assert files[1][Path("script.sim")] == script.encode()

    @pytest.mark.parametrize("mode", ["inprocess", "subprocess"])
    @pytest.mark.parametrize("old, new", [
        ("section 1 1 0.01 ", "section 1 1 -0.01 "),
        ("material 1 210000000000.0 ", "material 1 -210000000000.0 "),
    ])
    def test_nonpositive_area_or_modulus_is_a_model_fault(self, tmp_path, cantilever_script,
                                                          mode, old, new):
        # the audit at analyze rejects it before the solver would call the
        # model a mechanism and point the repair at its supports
        script = cantilever_script.replace(old, new)
        assert script != cantilever_script
        out = execute(script, allocate_workspace(tmp_path, "sign"), Limits(), mode=mode)
        assert out.status == "FAILED"
        analyze = 1 + script.splitlines().index("analyze static")
        assert out.runtime_error.kind == "model" and out.runtime_error.line == analyze
        assert "non-positive" in out.runtime_error.message

    @pytest.mark.parametrize("mode", ["inprocess", "subprocess"])
    @pytest.mark.parametrize("density", ["-7850.0", "0.0"])
    def test_nonpositive_density_is_a_model_fault_in_modal(self, tmp_path, mode, density):
        # without the audit the solver reports a non-positive mode or an
        # ARPACK failure, and the repair is pointed at the supports
        script = lower_ir(modal_cantilever())
        bad = script.replace("0.3 7850.0", f"0.3 {density}")
        assert bad != script
        out = execute(bad, allocate_workspace(tmp_path, "mass"), Limits(), mode=mode)
        assert out.status == "FAILED"
        analyze = 1 + bad.splitlines().index("analyze modal count 3")
        assert out.runtime_error == Fault(
            "model", analyze, f"model rejected: material 1 has a non-positive density {density}")
        # statics needs no mass
        static = bad.replace("analyze modal count 3", "load 2 0.0 -1000.0 0.0\nanalyze static")
        out = execute(static, allocate_workspace(tmp_path, "mass"), Limits(), mode=mode)
        assert out.status == "COMPLETED"

    def test_subprocess_child_finds_the_package_without_pythonpath(
            self, tmp_path, cantilever_script, monkeypatch):
        # the tests import vfea through sys.path; the child must find the same package
        monkeypatch.delenv("PYTHONPATH", raising=False)
        outs = [execute(cantilever_script, allocate_workspace(tmp_path, mode), Limits(),
                        mode=mode) for mode in ("inprocess", "subprocess")]
        assert outs[1].status == outs[0].status == "COMPLETED"
        assert outs[1].log == outs[0].log
        assert outs[1].results_path.read_text() == outs[0].results_path.read_text()

    @pytest.mark.parametrize("returncode, stdout", [(1, ""), (0, "Traceback (most recent")])
    def test_subprocess_child_crash_is_failed_outcome(self, tmp_path, cantilever_script,
                                                     monkeypatch, returncode, stdout):
        def crashed(cmd, **kwargs):
            return subprocess.CompletedProcess(cmd, returncode, stdout, "MemoryError\n")

        monkeypatch.setattr(subprocess, "run", crashed)
        ws = allocate_workspace(tmp_path, "crash")
        out = execute(cantilever_script, ws, Limits(), mode="subprocess")
        assert out.status == "FAILED" and out.results_path is None
        assert out.runtime_error.kind == "sandbox"
        assert out.log.endswith("STATUS: FAILED\n")
        assert (ws / "run.log").read_text() == out.log

    def test_unwritable_results_path_fails(self, tmp_path, cantilever_script):
        # "." names the workspace directory itself, which is inside but not a file
        out = execute(cantilever_script.replace("write_results results.res", "write_results ."),
                      allocate_workspace(tmp_path, "dir"), Limits())
        assert out.status == "FAILED"
        assert out.runtime_error.kind == "sandbox"


# statement lines built from the grammar, with edge-case ids, numbers and paths
# any character, lone surrogates (which UTF-8 cannot encode) included
_ANY_CHAR = st.characters(exclude_categories=()) | st.characters(
    min_codepoint=0xD800, max_codepoint=0xDFFF, exclude_categories=())


def _text(max_size: int):
    return st.text(max_size=max_size) | st.text(_ANY_CHAR, max_size=max_size)


_IDS = st.integers(-1, 4).map(str)
_NUMS = st.sampled_from(["0", "1", "-1", "1e-3", "2.1e11", "0.3", "7850", "1e-6", "nan",
                         "inf", "-inf", "1e308", "1e-200", "-2.5"])
_PATH_TEXTS = ["results.res", ".", "..", "../escape.res", "/escape.res", "sub/r.res",
               "script.sim", "script.sim/x", "a\x00b", "x" * 300]
_PATHS = st.sampled_from(_PATH_TEXTS)
_LINES = st.one_of(
    st.sampled_from(["model begin", "analyze static", "end", "delete model root"]),
    st.tuples(st.sampled_from(["node", "material", "section", "load", "fix", "delete element",
                               "delete node", "element 1 truss", "element 2 frame"]),
              st.lists(st.one_of(_IDS, _NUMS), min_size=1, max_size=4))
    .map(lambda t: " ".join([t[0], *t[1]])),
    st.builds("fix {} {}".format, _IDS, st.sampled_from(["ux", "uy,rz", "ux,uy,rz", "uz"])),
    st.builds("analyze modal count {}".format, st.integers(-1, 4)),
    st.builds("analyze topopt volfrac {} iters {}".format, _NUMS, st.integers(-1, 3)),
    st.builds("{} {}".format, st.sampled_from(["write_results", "workspace"]), _PATHS),
    _text(30),
)
_BASES = [lower_ir(m) for m in (cantilever_model(), two_bar_truss(), modal_cantilever(),
                                     ground_structure(iters=2))]


@st.composite
def _scripts(draw):
    """Arbitrary text, or a valid script with a few lines replaced or inserted."""
    if draw(st.booleans()):
        return draw(_text(200))
    lines = draw(st.sampled_from(_BASES)).splitlines()
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(lines)))
        lines[at:at + draw(st.integers(0, 1))] = [draw(_LINES)]
    return "\n".join(lines) + "\n"


def _assert_execute_is_total(script: str, mode: str) -> None:
    """``execute`` returns one of its three outcomes for the script; a fault
    exactly when it did not complete, of kind ``budget`` exactly when it
    ABORTED, and a log that ends in its status."""
    with tempfile.TemporaryDirectory() as root:
        out = execute(script, allocate_workspace(root, "prop"), Limits(max_wall_time=10.0),
                      mode=mode)
    assert out.status in ("COMPLETED", "FAILED", "ABORTED")
    assert (out.runtime_error is None) == (out.status == "COMPLETED")
    assert (out.status == "ABORTED") == (out.runtime_error is not None
                                         and out.runtime_error.kind == "budget")
    assert out.log.endswith(f"STATUS: {out.status}\n")


@settings(max_examples=300, deadline=None, suppress_health_check=list(HealthCheck))
@given(_scripts())
def test_inprocess_execute_is_total(script):
    _assert_execute_is_total(script, "inprocess")


# each example starts one sandbox child and waits for it
@settings(max_examples=8, deadline=None, suppress_health_check=list(HealthCheck))
@given(_scripts())
def test_subprocess_execute_is_total(script):
    _assert_execute_is_total(script, "subprocess")


@pytest.mark.parametrize("mode", ["inprocess", "subprocess"])
@pytest.mark.parametrize("statement", ["write_results", "workspace"])
def test_a_path_preflight_passes_never_escapes_a_fresh_workspace(tmp_path, mode, statement):
    """Preflight sees no workspace, and the kernel draws the boundary: over
    every artifact path above, and an absolute one into a sibling workspace,
    a script that preflight passes never ends in an isolation fault."""
    base = lower_ir(cantilever_model())
    sibling = str(allocate_workspace(tmp_path, "other") / simscript.RESULTS_FILENAME)
    passed = []
    for path in [*_PATH_TEXTS, sibling]:
        script = (base.replace("write_results results.res", f"write_results {path}")
                  if statement == "write_results"
                  else base.replace("model begin\n", f"model begin\nworkspace {path}\n"))
        if simscript.preflight(parse_script(script)):
            continue
        passed.append(path)
        out = execute(script, allocate_workspace(tmp_path, "task"), Limits(), mode=mode)
        assert out.runtime_error is None or out.runtime_error.kind != "isolation", path
    assert passed == ["results.res", ".", "sub/r.res", "script.sim", "script.sim/x", "x" * 300]


# Every result kind and optional field, as solved: name -> result set.
RESULT_SETS = {
    "static-frame": lambda: solve_static(cantilever_model()),
    "static-truss": lambda: solve_static(two_bar_truss()),
    "modal": lambda: solve_modal(modal_cantilever(3)),
    "modal-note": lambda: solve_modal(modal_cantilever(10_000)),  # fewer dofs than modes
    "topology": lambda: optimize_topology(ground_structure(volfrac=0.5, iters=3)),
}
# The audited model of each mode that the RESULT_SETS were solved from.
VERIFIED_MODELS = {"static": cantilever_model(), "modal": modal_cantilever(3),
                   "topology_optimization": ground_structure(volfrac=0.5, iters=3)}


# (result set, edit of its document, path of the defect the edit makes)
RESULT_DEFECTS = [
    ("static-frame", lambda d: d.update(displacements=5), "$.displacements"),
    ("static-frame", lambda d: d["reactions"].update({"1": [0.0, 0.0]}), "$.reactions.1"),
    ("topology", lambda d: d["areas"].update({"01": 1.0}), "$.areas.01"),
    ("modal", lambda d: d["frequencies_hz"].__setitem__(0, "1.5"), "$.frequencies_hz[0]"),
    ("modal", lambda d: d.update(note=3), "$.note"),
    ("modal", lambda d: d.update(result_kind="static"), "$.frequencies_hz"),
    ("topology", lambda d: d.pop("result_kind"), "$.result_kind"),
]


class TestResultsDatabase:
    @pytest.mark.parametrize("make", RESULT_SETS.values(), ids=RESULT_SETS)
    def test_round_trip(self, tmp_path, make):
        rs = make()
        path = tmp_path / "results.res"
        write_results_file(rs, path)
        assert read_results(path) == rs

    @pytest.mark.parametrize("kind,edit", [
        ("static-frame", lambda d: d["displacements"]["2"].__setitem__(1, math.nan)),
        ("static-frame", lambda d: d.update(equilibrium_residual=math.inf)),
        ("static-truss", lambda d: d["axial_force"].update({"1": -math.inf})),
        ("modal", lambda d: d["frequencies_hz"].__setitem__(0, math.nan)),
        ("modal", lambda d: d["mode_shapes"][1]["2"].__setitem__(0, math.inf)),
        ("topology", lambda d: d["compliance_history"].append(math.nan)),
        ("topology", lambda d: d.update(final_volume_fraction=math.inf)),
    ], ids=["displacement-nan", "residual-inf", "axial-force-minus-inf", "frequency-nan",
            "mode-shape-inf", "compliance-nan", "volume-fraction-inf"])
    def test_non_finite_number_is_corrupt(self, tmp_path, kind, edit):
        path = tmp_path / "results.res"
        write_results_file(RESULT_SETS[kind](), path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))  # NaN and Infinity, as json writes them
        assert "NaN" in path.read_text() or "Infinity" in path.read_text()
        with pytest.raises(ResultsError) as err:
            read_results(path)
        assert err.value.kind == "unverified" and str(err.value).startswith(f"{path}: ")
        outcome = ExecutionOutcome("COMPLETED", path, "STATUS: COMPLETED\n", None)
        mode = {"static": "static", "modal": "modal", "topology": "topology_optimization"}
        with pytest.raises(ResultsError) as verified:
            verify_results(outcome, VERIFIED_MODELS[mode[kind.split("-")[0]]])
        assert str(verified.value) == str(err.value)

    @pytest.mark.parametrize("kind,edit,where", RESULT_DEFECTS,
                             ids=[f"{kind}:{where}" for kind, _, where in RESULT_DEFECTS])
    def test_defect_names_its_path(self, tmp_path, kind, edit, where):
        path = tmp_path / "results.res"
        write_results_file(RESULT_SETS[kind](), path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ResultsError) as err:
            read_results(path)
        assert err.value.kind == "unverified" and str(err.value).startswith(f"{path}: ")
        assert f": {where}: " in str(err.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ResultsError) as err:
            read_results(tmp_path / "nope.res")
        assert err.value.kind == "unverified"
        assert str(err.value) == f"{tmp_path / 'nope.res'}: no such file"

    def test_truncated_file(self, tmp_path):
        from vfea.solver import solve_static
        rs = solve_static(cantilever_model())
        path = tmp_path / "trunc.res"
        write_results_file(rs, path)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        with pytest.raises(ResultsError) as err:
            read_results(path)
        assert err.value.kind == "unverified" and str(err.value).startswith(f"{path}: ")

    def test_wrong_shape_rejected(self, tmp_path):
        path = tmp_path / "odd.res"
        path.write_text('{"result_kind": "static", "displacements": 5}')
        with pytest.raises(ResultsError) as err:
            read_results(path)
        assert err.value.kind == "unverified" and str(err.value).startswith(f"{path}: ")

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "kind.res"
        path.write_text('{"result_kind": "thermal"}')
        with pytest.raises(ResultsError) as err:
            read_results(path)
        assert err.value.kind == "unverified" and str(err.value).startswith(f"{path}: ")


# JSON text a drawn defect puts in place of one value: a string, a bool,
# null, NaN, a number beyond the float range, a nested list and an integer
# beyond it.
DAMAGED_VALUES = ['"1.5"', "true", "null", "NaN", "1e400", "[[1.0, [2.0]]]", "1" + "0" * 400]


@functools.cache
def _result_document(name: str) -> dict:
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "results.res"
        write_results_file(RESULT_SETS[name](), path)
        return json.loads(path.read_text(encoding="utf-8"))


def _places(doc, at=()):
    """The path of every value inside a document, as keys and indices."""
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield at + (key,)
            yield from _places(value, at + (key,))


@st.composite
def _damaged_results(draw) -> bytes:
    """The text of a valid results document of a drawn kind with one drawn
    defect: a key dropped, a value replaced, the text truncated, or bytes
    that are not UTF-8 inserted."""
    doc = copy.deepcopy(_result_document(draw(st.sampled_from(sorted(RESULT_SETS)))))
    defect = draw(st.sampled_from(["drop", "replace", "truncate", "not-utf-8"]))
    if defect in ("drop", "replace"):
        places = [at for at in _places(doc) if defect == "replace" or isinstance(at[-1], str)]
        *parent, last = draw(st.sampled_from(places))
        container = functools.reduce(lambda node, key: node[key], parent, doc)
        if defect == "drop":
            del container[last]
        else:
            container[last] = "\0damaged"
    text = json.dumps(doc).encode("utf-8")
    if defect == "replace":
        return text.replace(b'"\\u0000damaged"', draw(st.sampled_from(DAMAGED_VALUES)).encode())
    offset = draw(st.integers(0, len(text)))
    if defect == "truncate":
        return text[:offset]
    return text[:offset] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + text[offset:]


@settings(max_examples=200, deadline=None)
@given(_damaged_results())
def test_verify_results_of_a_damaged_document_passes_or_names_its_path(data):
    # in every mode: results of the mode's class that pass its check, or a
    # ResultsError that names the path; nothing else escapes
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "results.res"
        path.write_bytes(data)
        outcome = ExecutionOutcome("COMPLETED", path, "STATUS: COMPLETED\n", None)
        for mode, model in VERIFIED_MODELS.items():
            try:
                rs = verify_results(outcome, model)
            except ResultsError as exc:
                assert str(exc).startswith(f"{path}: ")
                continue
            assert isinstance(rs, solver.ANALYSES[mode].result)
            assert certify.CHECKS[mode](rs, model) is None


class TestAnalysisTable:
    def test_one_row_per_mode_everywhere(self):
        # a mode added in one place only fails here
        assert tuple(solver.ANALYSES) == tuple(certify.CHECKS) == ANALYSIS_MODES
        assert [f.key for f in simscript._STATEMENTS if f.words[0] == "analyze"] == list(
            ANALYSIS_MODES)
        assert [parse_context(f"mode: {mode}\n").analysis.mode for mode in ANALYSIS_MODES] == list(
            ANALYSIS_MODES)
        with pytest.raises(PerceptionError, match="unknown analysis mode") as err:
            parse_context("mode: buckling\n")
        assert err.value.kind == "semantics"

    def test_every_column_has_an_entry_for_every_mode(self):
        assert tuple(MODES) == tuple(solver.ANALYSES) == tuple(certify.CHECKS) == ANALYSIS_MODES
        for table in (MODES, solver.ANALYSES):
            for row in table.values():
                assert None not in row
        for row in MODES.values():
            assert row.element_kinds and set(row.element_kinds) <= set(ELEMENT_KINDS)
            for p in row.params:
                assert None not in p and p.read in (int, float) and p.low <= p.prior <= p.high
        params = [p for row in MODES.values() for p in row.params]
        for name in ("attr", "key", "directive"):
            names = [getattr(p, name) for p in params]
            assert len(set(names)) == len(names)

    def test_documented_directives_are_the_rows(self):
        # the context block of docs/drawing-format.md: the four directives
        # of every mode, then each mode's parameters, marked with their mode
        doc = (DOCS / "drawing-format.md").read_text(encoding="utf-8")
        block = doc.split("## Context text", 1)[1].split("```")[1]
        lines = [(line.split(":", 1)[0], line.partition("#")[2].strip())
                 for line in block.strip().splitlines()]
        params = [(p.directive, f"{mode} only") for mode, row in MODES.items()
                  for p in row.params]
        assert [key for key, _ in lines[:4]] == ["material", "section", "elements", "mode"]
        assert lines[4:] == params

    def test_documented_mode_fields_are_the_rows(self):
        # the analysis table of docs/ir-schema.md: field, type, range and
        # prior of every mode parameter, and whether perception writes it
        doc = (DOCS / "ir-schema.md").read_text(encoding="utf-8")
        table = doc.split("| mode | field |", 1)[1].split("\n\n", 1)[0]
        rows = [[cell.strip().strip("`") for cell in line.strip("|").split("|")]
                for line in table.strip().splitlines()[2:]]
        documented = [(mode, key, kind, span, float(re.search(r"prior (\S+?),?\s", unset)[1]),
                       unset.startswith("required"))
                      for mode, key, kind, span, unset in rows]
        assert documented == [(mode, p.key, {int: "integer", float: "number"}[p.read],
                               f"[{p.low:g}, {p.high:g}]", p.prior, p.kept)
                              for mode, row in MODES.items() for p in row.params]

    @staticmethod
    def budget_models(suite_dir) -> list[tuple[str, object]]:
        """The bundled reference models, and the truss grids, frames and
        random frames the tests generate."""
        bundled = [(d.name, deserialize((d / "truth.ir.json").read_text()))
                   for d in sorted(suite_dir.iterdir()) if (d / "truth.ir.json").exists()]
        generated = [(f"{make.__name__}{size}",
                      deserialize(json.dumps(make(*size, random.Random(f"budget{size}"))[2])))
                     for make, size in ((workloads.truss_grid, (4, 2)),
                                        (workloads.truss_grid, (20, 10)),
                                        (workloads.frame, (4, 2)), (workloads.frame, (10, 5)))]
        rng = random.Random(17)
        return bundled + generated + [(f"random{i}", random_frame_model(rng)) for i in range(8)]

    @pytest.mark.parametrize("mode", ["static", "modal"])
    def test_the_budgets_count_the_dofs_the_solver_assembles_and_factors(
            self, monkeypatch, tmp_path, suite_dir, mode):
        # the counts the run's dof and work budgets read, stopped there
        counted = {}
        monkeypatch.setattr(sandbox, "solved_dofs",
                            lambda m: counted.setdefault("dofs", solver.solved_dofs(m)))

        def stop(spec, free):
            counted["free"] = free
            raise sandbox._RuntimeStop("budget", "counted")

        monkeypatch.setattr(sandbox, "_check_work", stop)
        spec = AnalysisSpec(mode, modal_count=3 if mode == "modal" else None)
        models = self.budget_models(suite_dir)
        assert len(models) == 15 + 4 + 8
        for name, base in models:
            # a static analysis needs a load; the frame_modal case has none
            model = replace(base, analysis=spec,
                            loads=base.loads or (Load(base.nodes[-1].id, 0.0, -1e3, 0.0),))
            counted.clear()
            out = execute(lower_ir(model), allocate_workspace(tmp_path, "budget"), Limits())
            assert out.runtime_error.message == "counted", name
            system = solver.assemble(model, solver.ANALYSES[mode].subdivisions)
            free = solver._FreeDofs(system.pattern, system.constrained)
            assert counted == {"dofs": system.n_dofs, "free": free.size}, name

    def test_execute_calls_the_solver_by_its_module_name(self, monkeypatch, tmp_path):
        # a tracer times the solver by rebinding ``solver.solve_static``; a
        # row holding the function object itself would bypass it
        calls = []
        original = solver.solve_static
        monkeypatch.setattr(solver, "solve_static", lambda m: calls.append(m) or original(m))
        out = execute(lower_ir(cantilever_model()), allocate_workspace(tmp_path, "traced"),
                      Limits())
        assert out.status == "COMPLETED"
        assert len(calls) == 1


# Lines for the interpreter oracle to put among a lowered script's
# declarations: each statement kind, deletes that hit and miss, paths
# inside and outside the workspace, and declarations that repeat an id or
# fix and load a node again.
_EXTRA_LINES = [
    "model begin", "delete element 1", "delete node 2", "delete node 99", "delete model root",
    "workspace sub", "workspace /etc", "analyze static", "analyze modal count 2",
    "write_results results.res", "write_results ../out.res", "end",
    "fix 1 ux", "fix 2 uy,rz", "fix 1 rz", "load 2 1.5 -2 0", "load 2 0 0 3", "load 1 -4 0 0",
    "node 1 0.5 0.5", "node 2 2 0", "element 1 truss 1 2 1", "element 1 frame 1 2 1",
    "material 1 1e9 0.3 7850", "section 1 1 0.02", "section 1 1 0.01 1e-6",
]


@st.composite
def _programs(draw):
    """A lowered script's lines with its declarations split into runs by
    other statements, some declarations repeated, ``model begin`` moved or
    dropped and the closing statements dropped or repeated; and a
    statement budget that may end anywhere in it."""
    model = draw(st.sampled_from([cantilever_model(), two_bar_truss(), modal_cantilever()])
                 | st.integers(0, 10_000).map(lambda n: random_frame_model(random.Random(n))))
    script = lower_ir(model).splitlines()
    declarations, tail = script[1:-3], script[-3:]
    lines = list(declarations)
    for _ in range(draw(st.integers(0, 4))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(declarations) | st.sampled_from(_EXTRA_LINES)))
    begin = draw(st.sampled_from(["first", "first", "first", "anywhere", "none"]))
    if begin != "none":
        lines.insert(0 if begin == "first" else draw(st.integers(0, len(lines))), "model begin")
    lines += draw(st.sampled_from([tail, tail, tail, tail[:-1], tail[1:], tail + tail[-2:], [],
                                   []]))
    if not lines:
        lines = ["end"]
    budget = draw(st.just(10_000) | st.integers(1, len(lines) + 1))
    return "\n".join(lines) + "\n", Limits(max_statements=budget)


@settings(max_examples=300, deadline=None)
@given(_programs())
@example(("model begin\nnode 1 0 0\nnode 2 1 0\n", Limits(max_statements=2)))  # cut in the last run
@example(("node 1 0 0\nnode 2 1 0\nmodel begin\nend\n", Limits()))  # before model begin
def test_interpreter_agrees_with_the_reference(case):
    """Same status, fault, run.log and results bytes as the interpreter
    that runs one statement per line."""
    text, limits = case
    program = parse_script(text)
    with tempfile.TemporaryDirectory() as tmp:
        runs = []
        for name, run in (("runs", _interpret), ("lines", reference.interpret)):
            root = Path(tmp) / name
            root.mkdir()
            out = run(program, root, limits, time.monotonic())
            results = out.results_path and (out.results_path.relative_to(root),
                                            out.results_path.read_bytes())
            runs.append((out.status, out.runtime_error, out.log, results,
                         (root / "run.log").read_bytes()))
        assert runs[0] == runs[1]
