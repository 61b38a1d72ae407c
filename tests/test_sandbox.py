"""Run isolation: workspace allocation, interpreter semantics, artifacts."""

from __future__ import annotations

import json
import math
import re
import subprocess
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import (cantilever_model, ground_structure, modal_cantilever,
                      two_bar_truss)
from vfea.ir import AnalysisSpec, BoundaryCondition, Element, Node
from vfea.sandbox import (MAX_MODES, MAX_OC_ITERATIONS, ExecutionOutcome, Limits,
                          ResultsCorruptError, ResultsMissingError, WorkspaceError,
                          allocate_workspace, execute, read_results, write_results_file)
from vfea.simscript import Fault, lower_ir, parse_script
from vfea.solver import TopoResult, optimize_topology, solve_modal, solve_static
from vfea.synthesis import verify_results

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
    (None, "", "", Limits(max_statements=3)),  # a budget abort carries no fault
]


@pytest.fixture()
def cantilever_script(tmp_path):
    return lower_ir(cantilever_model())


class TestWorkspace:
    def test_same_task_id_gets_distinct_directories(self, tmp_path):
        a = allocate_workspace(tmp_path, "job")
        b = allocate_workspace(tmp_path, "job")
        assert a.root != b.root
        assert a.root.is_dir() and b.root.is_dir()

    def test_fresh_workspace_is_empty(self, tmp_path):
        ws = allocate_workspace(tmp_path, "job")
        assert list(ws.root.iterdir()) == []

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


class TestExecute:
    def test_golden_run_completes(self, tmp_path, cantilever_script):
        ws = allocate_workspace(tmp_path, "gold")
        out = execute(cantilever_script, ws, Limits())
        assert out.status == "COMPLETED"
        assert out.results_path is not None and out.results_path.exists()
        assert out.log.rstrip().endswith("STATUS: COMPLETED")
        assert (ws.root / "script.sim").read_text() == cantilever_script
        assert (ws.root / "run.log").read_text() == out.log

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
        assert out.runtime_error is None
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
    def test_oc_iteration_budget(self, tmp_path, mode):
        script = lower_ir(ground_structure(iters=MAX_OC_ITERATIONS + 1))
        out = execute(script, allocate_workspace(tmp_path, "oc"), Limits(), mode=mode)
        assert out.status == "ABORTED" and out.runtime_error is None
        assert f"({MAX_OC_ITERATIONS + 1} > {MAX_OC_ITERATIONS} iterations)" in out.log
        script = lower_ir(ground_structure(iters=MAX_OC_ITERATIONS))
        assert execute(script, allocate_workspace(tmp_path, "oc"), Limits(),
                       mode=mode).status == "COMPLETED"

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
        produced = set(p.relative_to(ws.root) for p in ws.root.rglob("*"))
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

    def test_fix_echoes_its_dofs_in_canonical_order(self, tmp_path, cantilever_script):
        script = cantilever_script.replace("fix 1 ux,uy,rz", "fix 1 rz,ux\nfix 1 uy,ux")
        out = execute(script, allocate_workspace(tmp_path, "fix"), Limits())
        assert out.status == "COMPLETED"
        assert "] fix 1 ux,rz\n" in out.log and "] fix 1 ux,uy\n" in out.log

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
        assert outs[0].status == ("ABORTED" if kind is None else "FAILED")
        assert (outs[0].runtime_error and outs[0].runtime_error.kind) == kind
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
            files.append({p.relative_to(ws.root): p.read_bytes()
                          for p in ws.root.rglob("*") if p.is_file()})
        assert (outs[1].runtime_error and outs[1].runtime_error.kind) == kind
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
        assert (ws.root / "run.log").read_text() == out.log

    def test_unwritable_results_path_fails(self, tmp_path, cantilever_script):
        # "." names the workspace directory itself, which is inside but not a file
        out = execute(cantilever_script.replace("write_results results.res", "write_results ."),
                      allocate_workspace(tmp_path, "dir"), Limits())
        assert out.status == "FAILED"
        assert out.runtime_error.kind == "sandbox"


# statement lines built from the grammar, with edge-case ids, numbers and paths
_IDS = st.integers(-1, 4).map(str)
_NUMS = st.sampled_from(["0", "1", "-1", "1e-3", "2.1e11", "0.3", "7850", "1e-6", "nan",
                         "inf", "-inf", "1e308", "1e-200", "-2.5"])
_PATHS = st.sampled_from(["results.res", ".", "..", "../escape.res", "/escape.res",
                          "sub/r.res", "script.sim", "script.sim/x", "a\x00b", "x" * 300])
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
    st.text(max_size=30),
)
_BASES = [lower_ir(m) for m in (cantilever_model(), two_bar_truss(), modal_cantilever(),
                                     ground_structure(iters=2))]


@st.composite
def _scripts(draw):
    """Arbitrary text, or a valid script with a few lines replaced or inserted."""
    if draw(st.booleans()):
        return draw(st.text(max_size=200))
    lines = draw(st.sampled_from(_BASES)).splitlines()
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(lines)))
        lines[at:at + draw(st.integers(0, 1))] = [draw(_LINES)]
    return "\n".join(lines) + "\n"


def _assert_execute_is_total(script: str, mode: str) -> None:
    """``execute`` returns one of its three outcomes for the script; a fault
    exactly when it FAILED, and a log that ends in its status."""
    with tempfile.TemporaryDirectory() as root:
        out = execute(script, allocate_workspace(root, "prop"), Limits(max_wall_time=10.0),
                      mode=mode)
    assert out.status in ("COMPLETED", "FAILED", "ABORTED")
    assert (out.runtime_error is not None) == (out.status == "FAILED")
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


# Every result kind and optional field, as solved: name -> result set.
RESULT_SETS = {
    "static-frame": lambda: solve_static(cantilever_model()),
    "static-truss": lambda: solve_static(two_bar_truss()),
    "modal": lambda: solve_modal(modal_cantilever(), 3),
    "modal-note": lambda: solve_modal(modal_cantilever(), 10_000),  # fewer dofs than modes
    "topology": lambda: optimize_topology(ground_structure(iters=3), 0.5, 3),
}


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
        with pytest.raises(ResultsCorruptError):
            read_results(path)
        outcome = ExecutionOutcome("COMPLETED", path, "STATUS: COMPLETED\n", None)
        mode = {"static": "static", "modal": "modal", "topology": "topology_optimization"}
        analysis = AnalysisSpec(mode=mode[kind.split("-")[0]], modal_count=3)
        assert verify_results(outcome, analysis) is None

    @pytest.mark.parametrize("kind,edit,where", RESULT_DEFECTS,
                             ids=[f"{kind}:{where}" for kind, _, where in RESULT_DEFECTS])
    def test_defect_names_its_path(self, tmp_path, kind, edit, where):
        path = tmp_path / "results.res"
        write_results_file(RESULT_SETS[kind](), path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ResultsCorruptError) as err:
            read_results(path)
        assert f": {where}: " in str(err.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ResultsMissingError):
            read_results(tmp_path / "nope.res")

    def test_truncated_file(self, tmp_path):
        from vfea.solver import solve_static
        rs = solve_static(cantilever_model())
        path = tmp_path / "trunc.res"
        write_results_file(rs, path)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        with pytest.raises(ResultsCorruptError):
            read_results(path)

    def test_wrong_shape_rejected(self, tmp_path):
        path = tmp_path / "odd.res"
        path.write_text('{"result_kind": "static", "displacements": 5}')
        with pytest.raises(ResultsCorruptError):
            read_results(path)

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "kind.res"
        path.write_text('{"result_kind": "thermal"}')
        with pytest.raises(ResultsCorruptError):
            read_results(path)
