"""The failure table: its rows against the formats and class lists it
replaced (failures_reference.py), its documented copy, the exception
classes and fault kinds of the package against its rows, and the failures
that hostile case inputs end in."""

from __future__ import annotations

import ast
import contextlib
import io
import json
import random
import tempfile
from dataclasses import replace
from pathlib import Path

import failures_reference as reference
import pytest
from conftest import REPO_ROOT, SUITE_DIR
from hypothesis import event, given, settings
from hypothesis import strategies as st
from test_perception import _contexts, _drawing_docs

from vfea import cli
from vfea.failures import FAILURES, raised
from vfea.harness import (CaseFailure, CaseLoadError, CaseSpec, RunConfig, aggregate,
                          emit_report, load_case, run_case)
from vfea.memory import ExperienceBuffer, MemoryPersistError, classify_error
from vfea.sandbox import Limits, WorkspaceError
from vfea.simscript import Fault, lower_ir, parse_script, preflight
from vfea.synthesis import (ConfigError, DebugContext, FaultyGenerator, SynthesisError, reflect,
                            synthesize)

SRC = REPO_ROOT / "src" / "vfea"
DOCS = REPO_ROOT / "docs"


class TestAttemptRows:
    def test_rows_keep_each_kinds_category_and_lesson(self):
        attempt = {kind: row[1:3] for (stage, kind), row in FAILURES.items() if stage == "attempt"}
        # a budget abort and an unverified run take the lesson a failure
        # without a kind took
        assert attempt == {**reference.FAILURE_KINDS, "budget": reference.UNKNOWN_FAILURE,
                           "unverified": reference.UNKNOWN_FAILURE}

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([*reference.FAILURE_KINDS, "budget", "unverified"]),
                    min_size=1, max_size=5))
    def test_category_and_lessons_as_before(self, kinds):
        assert classify_error(kinds, "any message", None).category == reference.category(kinds)
        assert reflect(kinds) == reference.reflect(kinds)

    @pytest.mark.parametrize("fault", sorted(reference.FAULT_KINDS))
    def test_a_faulty_generator_repairs_on_the_same_lesson(self, fault, cantilever):
        generator = FaultyGenerator(fault)
        broken = generator.generate(cantilever, [])
        lessons = (reference.repair_lesson(fault),)
        assert generator.repair(broken, DebugContext("other", "", None, "", lessons)) == \
            lower_ir(cantilever)
        others = tuple(lesson for _, lesson in reference.FAILURE_KINDS.values()
                       if lesson != lessons[0])
        assert generator.repair(broken, DebugContext("other", "", None, "", others)) == broken

    @pytest.mark.parametrize("edit", [
        lambda s: s.replace("analyze static\n", "").replace("end\n", "")
        + "delete model root\nwrite_results ../out.res\n",
        lambda s: "model begin\nmesh_edges part1\n" + s,
        lambda s: s.replace("write_results results.res", "write_results /tmp/escape.res"),
    ], ids=["lifecycle-safety-isolation", "parse", "isolation"])
    def test_the_repair_context_of_a_rejected_attempt_as_before(self, edit, cantilever,
                                                                 tmp_path):
        seen = []

        class Recorder:
            def generate(self, model, memory_context):
                return edit(lower_ir(model))

            def repair(self, script, context):
                seen.append(context)
                return lower_ir(cantilever)

        _, _, trace = synthesize(cantilever, 1, ExperienceBuffer(), Recorder(), tmp_path)
        rejected = trace.attempts[0].faults
        assert rejected and trace.attempts[0].outcome is None
        kinds = [f.kind for f in rejected]
        assert seen[0].raw_log == reference.preflight_log(rejected)
        assert seen[0].lessons == tuple(reference.reflect(kinds))
        assert seen[0].category == reference.category(kinds)

    def test_an_unverified_run_takes_the_generic_lesson(self, cantilever, tmp_path):
        seen = []

        class WrongMode:  # completes a modal run of the static model: not verified
            def generate(self, model, memory_context):
                return lower_ir(model).replace("analyze static", "analyze modal count 1")

            def repair(self, script, context):
                seen.append(context)
                return lower_ir(cantilever)

        buffer = ExperienceBuffer()
        _, _, trace = synthesize(cantilever, 1, buffer, WrongMode(), tmp_path)
        assert seen[0].message == \
            f"{trace.attempts[0].outcome.results_path}: modal results, expected static"
        assert seen[0].lessons == tuple(reference.reflect([None]))
        assert buffer.records[0].error.category == "other"

    def test_a_budget_abort_takes_the_generic_lesson_and_names_its_budget(self, cantilever,
                                                                          tmp_path):
        seen = []

        class Recorder:  # every attempt, and the fallback, stops at line 3
            def generate(self, model, memory_context):
                return lower_ir(model)

            def repair(self, script, context):
                seen.append(context)
                return script

        buffer = ExperienceBuffer()
        with pytest.raises(SynthesisError) as err:
            synthesize(cantilever, 1, buffer, Recorder(), tmp_path,
                       limits=Limits(max_statements=3))
        assert [a.faults for a in err.value.trace.attempts] == \
            [(Fault("budget", 3, "statement budget (3) exceeded"),)] * 3
        assert [(c.category, c.message, c.line, c.lessons) for c in seen] == \
            [("other", "statement budget (3) exceeded", 3, tuple(reference.reflect([None])))] * 2
        assert [r.error.category for r in buffer.records] == ["other"] * 2
        assert (err.value.kind, str(err.value), err.value.subject) == (
            "fallback", "deterministic fallback failed with status ABORTED: "
            "statement budget (3) exceeded", "line 3")

    def test_preflight_faults_format_as_before(self, tmp_path):
        script = "model begin\ndelete model root\nwrite_results ../x.res\nworkspace /etc\n"
        faults = preflight(parse_script(script))
        assert {f.kind for f in faults} == {"lifecycle", "safety", "isolation"}
        assert "\n".join(FAILURES["attempt", f.kind].text.format(
            f.message, "" if f.line is None else f" line {f.line}") for f in faults) == \
            reference.preflight_log(faults)


class TestLoadRows:
    @pytest.mark.parametrize("exc", [
        CaseLoadError("case file does not resolve: x"), ConfigError("unknown generator spec"),
        WorkspaceError("workspace root is not writable"), MemoryPersistError("cannot read x"),
        FileNotFoundError(2, "No such file or directory"),
        UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte"),
        IsADirectoryError(21, "Is a directory")], ids=lambda e: type(e).__name__)
    def test_cli_message_and_exit_code_as_before(self, exc, monkeypatch, capsys):
        def command(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_validate", command)
        assert cli.main(["validate", "--ir", "x.json"]) == reference.cli_error(exc)[1]
        assert capsys.readouterr().err == reference.cli_error(exc)[0]

    def test_other_errors_pass_through_as_before(self, monkeypatch):
        def command(args):
            raise KeyError("a bug")

        monkeypatch.setattr(cli, "cmd_validate", command)
        assert reference.cli_error(KeyError("a bug")) is None
        with pytest.raises(KeyError):
            cli.main(["validate", "--ir", "x.json"])

    def test_schema_error_of_eval(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"nodes": 5}')
        assert cli.main(["eval", "--pred", str(bad), "--truth", str(bad)]) == 2
        assert capsys.readouterr().err == "schema error: $.elements: missing required field\n"

    def test_raised_names_the_load_rows(self):
        assert raised(OSError()) == raised(UnicodeDecodeError("utf-8", b"", 0, 1, "x")) == \
            ("load", "input")
        assert raised(ValueError()) is None and raised(KeyError()) is None


def _doc_rows(name: str) -> list[list[str]]:
    doc = (DOCS / name).read_text(encoding="utf-8")
    table = doc.split("| stage | kind |", 1)[1].split("\n\n", 1)[0]
    return [[cell.strip() for cell in line.strip("|").split("|")]
            for line in table.strip().splitlines()[2:]]


def test_documented_table_is_the_rows():
    # docs/simscript.md's failure table: every row in table order
    assert _doc_rows("simscript.md") == [
        [f"`{stage}`", f"`{kind}`", f"`{row.text}`" if row.text else "—",
         f"`{row.category}`" if row.category else "—",
         row.lesson or "—", str(row.exit_code)]
        for (stage, kind), row in FAILURES.items()]


# --- every exception and fault kind of the package against the rows ---------


def _modules() -> dict[str, ast.Module]:
    return {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}


def test_the_attempt_kinds_with_a_text_are_those_parse_and_preflight_reject():
    # a text is formatted only into the log of an attempt that parse or
    # preflight rejected; a kind that only a run meets has none
    (preflight_def,) = [node for node in ast.walk(_modules()["simscript.py"])
                        if isinstance(node, ast.FunctionDef) and node.name == "preflight"]
    rejected = {call.args[0].value for call in ast.walk(preflight_def)
                if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                and call.func.id == "Fault"}
    assert rejected and all(isinstance(kind, str) for kind in rejected)
    assert {kind for (stage, kind), row in FAILURES.items()
            if stage == "attempt" and row.text is not None} == {"parse", *rejected}


def _exception_classes() -> dict[str, tuple[str | None, str | None]]:
    """Each public exception class of src/vfea: its class-level stage and
    kind, None for one its instances carry."""
    out = {}
    for tree in _modules().values():
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ClassDef) and not node.name.startswith("_")
                    and any(isinstance(b, ast.Name) and b.id.endswith(("Exception", "Error"))
                            for b in node.bases)):
                continue
            attrs = {}
            for stmt in node.body:
                if isinstance(stmt, ast.Assign):
                    names = [t.id for target in stmt.targets
                             for t in (target.elts if isinstance(target, ast.Tuple) else [target])]
                    values = (stmt.value.elts if isinstance(stmt.value, ast.Tuple)
                              else [stmt.value])
                    attrs.update(zip(names, (v.value for v in values)))
            out[node.name] = (attrs.get("stage"), attrs.get("kind"))
    return out


def _literal(node) -> str | None:
    return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else None


def _named_rows() -> tuple[set, set]:
    """The rows the code raises an exception of or makes a fault of, and the
    rows it names by a literal (stage, kind) pair. A fault or stop names its
    attempt row by a string constant, or passes on the kind of the one it is
    made of (``exc.kind``, ``self.kind``, or a child's report, ``**doc``)."""
    classes = _exception_classes()
    raised_rows, literal_rows = set(), set()
    for name, tree in _modules().items():
        table_keys = {id(k) for d in ast.walk(tree) if isinstance(d, ast.Dict) for k in d.keys}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func.id if isinstance(node.func, ast.Name) else getattr(
                    node.func, "attr", None)
                args = [_literal(a) for a in node.args[:2]]
                if func in classes:
                    stage, kind = classes[func]
                    kind = kind or args[0]
                    assert (stage, kind) in FAILURES, (name, node.lineno, func, kind)
                    raised_rows.add((stage, kind))
                elif func in ("Fault", "_RuntimeStop"):
                    first = node.args[0] if node.args else None
                    if (first is None and any(k.arg is None for k in node.keywords)
                            or isinstance(first, ast.Attribute) and first.attr == "kind"):
                        continue
                    assert ("attempt", args[0]) in FAILURES, (name, node.lineno, func, args[0])
                    raised_rows.add(("attempt", args[0]))
                elif len(args) == 2 and tuple(args) in FAILURES:
                    literal_rows.add(tuple(args))
            elif isinstance(node, ast.Tuple) and id(node) not in table_keys:
                pair = tuple(map(_literal, node.elts))
                if pair in FAILURES:
                    literal_rows.add(pair)
    return raised_rows, literal_rows


def test_thirteen_public_exception_classes_each_with_a_stage():
    classes = _exception_classes()
    assert len(classes) == 13, sorted(classes)
    stages = {stage for stage, _ in FAILURES}
    assert all(stage in stages for stage, _ in classes.values()), classes


def test_every_exception_names_a_row_and_every_row_is_met():
    raised_rows, literal_rows = _named_rows()
    assert raised_rows <= set(FAILURES)
    # perceived-mode mismatches are the harness's own check, and unreadable
    # inputs raise OSError or UnicodeDecodeError: no vfea exception or fault
    # stands for those two rows, and the code that reports them names them
    assert set(FAILURES) - raised_rows == {("perception", "mode"), ("load", "input")}
    assert set(FAILURES) - raised_rows <= literal_rows


# --- hostile case inputs ------------------------------------------------------

_REFERENCE = json.loads((SUITE_DIR / "truss_two_bar" / "truth.ir.json").read_text())
_RECORD = {"signature": {"n_nodes": 3, "n_elements": 2, "section_kinds": ["truss_bar"],
                         "n_loads": 1, "n_bcs": 2},
           "error": {"category": "other", "tokens": ["x"], "line": None}, "lesson": "l",
           "script_excerpt": "model begin\n", "outcome": "failure", "created_at": 1.0}


@st.composite
def _reference_docs(draw):
    """No reference, the bundled one, or it with a defect: a collection of
    the wrong type or missing, an unknown field, a dangling cross-reference,
    a number as a string, or bad syntax."""
    rnd = draw(st.randoms(use_true_random=True))
    choice = rnd.choice([0, 0, 1, 1, 1, 2, 3, 4, 5, 6])
    doc = json.loads(json.dumps(_REFERENCE))
    if choice == 0:
        return None
    if choice == 2:
        doc[rnd.choice(sorted(doc))] = rnd.choice([5, None, "x", {}])
    elif choice == 3:
        del doc[rnd.choice(sorted(doc))]
    elif choice == 4:
        doc["nodes"][0]["extra"] = 1
    elif choice == 5:
        doc["elements"][0]["nodes"] = [1, 99]  # dangling: parses, left to the audit
    elif choice == 6:
        return json.dumps(doc)[:rnd.randrange(1, 40)]
    return json.dumps(doc)


@st.composite
def _buffer_files(draw):
    """Replay-buffer lines: records, torn records, junk and blank lines."""
    rnd = draw(st.randoms(use_true_random=True))
    line = json.dumps(_RECORD)
    pool = [line, line[:rnd.randrange(1, len(line))], "{}", "null", "not json", "",
            json.dumps({**_RECORD, "outcome": "maybe"}), json.dumps({**_RECORD, "line": 3})]
    return "\n".join(rnd.choice(pool) for _ in range(rnd.randrange(6))) + rnd.choice(["", "\n"])


_BUNDLED = sorted(p.name for p in SUITE_DIR.iterdir() if (p / "case.json").exists())
# run configurations: a plain one, one that exhausts its retries, and one
# whose fallback a three-statement budget aborts
_CONFIGS = [{}, {"generator_spec": "faulty:type_ii:stubborn", "max_retries": 0,
                 "fallback_enabled": False},
            {"generator_spec": "faulty:type_i:stubborn", "max_retries": 0,
             "limits": Limits(max_statements=3)}]


@settings(max_examples=150, deadline=None)
@given(st.one_of(_drawing_docs().map(json.dumps), st.sampled_from(_BUNDLED)),
       st.one_of(_contexts, st.none()),
       _reference_docs(), _buffer_files(),
       st.sampled_from([None, "static", "modal", "topology_optimization"]),
       st.sampled_from(_CONFIGS))
def test_hostile_cases_fail_at_a_row_with_the_texts_of_before(drawing, context, truth, buffer,
                                                              expected_mode, config):
    """A case of hostile inputs either fails to load (CaseLoadError), or its
    report names a row and carries the error text the harness wrote by hand."""
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        if drawing in _BUNDLED:  # a bundled drawing, under its context or a drawn one
            if context is None:
                context = (SUITE_DIR / drawing / "context.txt").read_text()
            drawing = (SUITE_DIR / drawing / "drawing.json").read_text()
        case = CaseSpec("hostile", scratch / "drawing.json", scratch / "context.txt",
                        scratch / "truth.ir.json" if truth is not None else None, expected_mode)
        case.drawing_path.write_text(drawing)
        case.context_path.write_text(context or "")
        if truth is not None:
            case.truth_ir_path.write_text(truth)
        (scratch / "buffer.jsonl").write_text(buffer)
        run = RunConfig(workspace_root=scratch / "ws", memory_path=scratch / "buffer.jsonl",
                        **config)
        try:
            report = run_case(case, run)
        except CaseLoadError:
            event("load/case")
            return
        event("verified" if report.failure is None
              else f"{report.failure.stage}/{report.failure.kind}")
        want = reference.run_case_error(case, replace(run, workspace_root=scratch / "ws2"),
                                        ExperienceBuffer())
        assert report.error == want
        if want is None:
            assert report.failure is None and report.metrics.execution_success
        else:
            failure = report.failure
            assert (failure.stage, failure.kind) in FAILURES
            assert FAILURES[failure.stage, failure.kind].exit_code == 1


# --- the failure of a report and the counts of a suite -------------------------


def _case(tmp_path: Path, name: str, drawing=None, context=None) -> CaseSpec:
    case_dir = tmp_path / name
    case_dir.mkdir()
    src = SUITE_DIR / name
    for f in ("case.json", "drawing.json", "context.txt", "truth.ir.json"):
        (case_dir / f).write_text((src / f).read_text())
    if drawing is not None:
        (case_dir / "drawing.json").write_text(json.dumps(drawing))
    if context is not None:
        (case_dir / "context.txt").write_text(context)
    return load_case(case_dir)


class TestReportFailure:
    def test_a_drawing_defect_names_its_path(self, tmp_path):
        doc = json.loads((SUITE_DIR / "truss_two_bar" / "drawing.json").read_text())
        doc["segments"][1]["p2"] = [0, "x"]
        report = run_case(_case(tmp_path, "truss_two_bar", drawing=doc),
                          RunConfig(workspace_root=tmp_path / "ws"))
        assert (report.failure.stage, report.failure.kind) == ("perception", "drawing")
        assert report.failure.subject == "$.segments[1].p2[1]"
        assert report.error.startswith("perception: DrawingParseError: $.segments[1].p2[1]: ")

    def test_an_audit_failure_names_its_first_finding(self, tmp_path):
        doc = json.loads((SUITE_DIR / "truss_two_bar" / "drawing.json").read_text())
        doc["support_glyphs"] = []
        report = run_case(_case(tmp_path, "truss_two_bar", drawing=doc),
                          RunConfig(workspace_root=tmp_path / "ws"))
        assert report.failure == CaseFailure("perception", "audit", "bcs")
        assert report.error == ("perception: no audited model after 1 turn; "
                                "open findings: ['empty-array']")

    def test_exhaustion_names_the_last_attempts_line(self, tmp_path):
        config = RunConfig(workspace_root=tmp_path / "ws", **_CONFIGS[1])
        report = run_case(_case(tmp_path, "truss_two_bar"), config)
        assert report.failure == CaseFailure("synthesis", "exhausted", "line 2")
        assert report.error == "synthesis: retry budget exhausted (1 attempts)"

    def test_the_structured_report_alone_shows_failures(self, tmp_path):
        good = run_case(_case(tmp_path, "frame_cantilever"), RunConfig(
            workspace_root=tmp_path / "ws"))
        bad = run_case(_case(tmp_path, "truss_two_bar"), RunConfig(
            workspace_root=tmp_path / "ws", **_CONFIGS[1]))
        doc = json.loads(emit_report(bad, "structured_text"))
        assert doc["failure"] == {"stage": "synthesis", "kind": "exhausted",
                                  "subject": "line 2"}
        assert json.loads(emit_report(good, "structured_text"))["failure"] is None
        assert "failure" not in emit_report(bad) and "exhausted" in emit_report(bad)
        summary = aggregate([good, bad, bad])
        assert summary.failure_counts == {"synthesis/exhausted": 2}
        assert json.loads(emit_report(summary, "structured_text"))["failure_counts"] == \
            {"synthesis/exhausted": 2}
        assert "failure" not in emit_report(summary)

    def test_run_exits_with_the_rows_code(self, tmp_path):
        src = SUITE_DIR / "truss_two_bar"
        args = ["run", "--drawing", str(src / "drawing.json"), "--context",
                str(src / "context.txt"), "--out", str(tmp_path / "out")]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(args) == 0
            assert cli.main([*args, "--generator", "faulty:type_ii:stubborn",
                             "--fallback", "off", "--max-retries", "0"]) == 1


def test_random_suite_counts_every_failed_case(tmp_path):
    rng = random.Random(3)
    reports = []
    for k, name in enumerate(rng.sample(_BUNDLED, 4)):
        config = RunConfig(workspace_root=tmp_path / "ws", **_CONFIGS[k % 2])
        reports.append(run_case(_case(tmp_path, name), config))
    summary = aggregate(reports)
    assert sum(summary.failure_counts.values()) == sum(r.error is not None for r in reports)
