"""Case running, perception metrics, aggregation, reporting, and the CLI."""

from __future__ import annotations

import json
import math
import random
import re
import shutil
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (BAR, STEEL, cantilever_model, random_frame_model,
                      two_bar_truss)
from vfea import harness
from vfea.cli import main as cli_main
from vfea.harness import (DEFAULT_MATCH_TOLERANCE, CaseLoadError, CaseReport,
                          CaseSpec, Metrics, RunConfig, TraceSummary, aggregate,
                          emit_report, evaluate_ir, load_case, load_suite,
                          run_case)
from vfea.ir import (COORDINATE_MODES, DOF_ORDER, BoundaryCondition, Element,
                     IRModel, Load, Node, canonicalize, serialize, unit_box)
from vfea.memory import ExperienceBuffer
from vfea.sandbox import Limits
from vfea.simscript import lower_ir
from vfea.synthesis import reflect
from vfea.validation import check_l1


def four_node_truth() -> IRModel:
    return canonicalize(IRModel(
        nodes=(Node(1, 0.0, 0.0), Node(2, 4.0, 0.0), Node(3, 4.0, 3.0), Node(4, 0.0, 3.0)),
        elements=(Element(1, "truss_bar", (1, 2), 1), Element(2, "truss_bar", (2, 3), 1),
                  Element(3, "truss_bar", (3, 4), 1)),
        materials=(STEEL,), sections=(BAR,),
        boundary_conditions=(BoundaryCondition(1, frozenset({"ux", "uy"})),
                             BoundaryCondition(2, frozenset({"uy"})),),
        loads=(Load(3, 0.0, -1000.0, 0.0),)))


class TestEvaluateIR:
    def test_identity_scores_all_ones(self, truss):
        m = evaluate_ir(truss, truss)
        assert (m.schema_valid, m.node_accuracy, m.connectivity_f1,
                m.bc_detection, m.overall) == (True, 1.0, 1.0, 1.0, 1.0)

    def test_missing_node_gives_three_quarters(self):
        truth = four_node_truth()
        # drop node 4 (and its element) but keep everything else exact
        pred = canonicalize(IRModel(
            nodes=truth.nodes[:3], elements=truth.elements[:2],
            materials=truth.materials, sections=truth.sections,
            boundary_conditions=truth.boundary_conditions, loads=truth.loads))
        m = evaluate_ir(pred, truth)
        assert m.node_accuracy == pytest.approx(0.75)  # 3 matches / max(3, 4)

    def test_spurious_element_f1_six_sevenths(self):
        truth = four_node_truth()
        pred = canonicalize(replace(truth, elements=truth.elements + (
            Element(4, "truss_bar", (1, 4), 1),)))
        m = evaluate_ir(pred, truth)
        # precision 3/4, recall 1 -> F1 = 6/7
        assert m.connectivity_f1 == pytest.approx(6 / 7)
        assert m.node_accuracy == 1.0

    def test_node_id_relabeling_invariance(self):
        truth = four_node_truth()
        remap = {1: 40, 2: 10, 3: 20, 4: 30}
        pred = canonicalize(IRModel(
            nodes=tuple(replace(n, id=remap[n.id]) for n in truth.nodes),
            elements=tuple(replace(e, node_ids=(remap[e.node_ids[0]],
                                                remap[e.node_ids[1]]),
                                   id=e.id + 5) for e in truth.elements),
            materials=truth.materials, sections=truth.sections,
            boundary_conditions=tuple(replace(b, node_id=remap[b.node_id])
                                      for b in truth.boundary_conditions),
            loads=tuple(replace(l, node_id=remap[l.node_id]) for l in truth.loads)))
        m = evaluate_ir(pred, truth)
        assert (m.node_accuracy, m.connectivity_f1, m.bc_detection) == (1.0, 1.0, 1.0)

    def test_uniform_rescaling_invariance(self):
        truth = four_node_truth()
        pred = canonicalize(replace(truth, elements=truth.elements[:2]))
        base = evaluate_ir(pred, truth)
        for factor in (0.25, 16.0):
            scale = lambda mm: canonicalize(replace(mm, nodes=tuple(
                replace(n, x=n.x * factor, y=n.y * factor) for n in mm.nodes)))
            m = evaluate_ir(scale(pred), scale(truth))
            assert m.connectivity_f1 == pytest.approx(base.connectivity_f1)
            assert m.node_accuracy == pytest.approx(base.node_accuracy)

    def test_bc_detection_requires_identical_dof_set(self):
        truth = four_node_truth()
        pred = canonicalize(replace(truth, boundary_conditions=(
            BoundaryCondition(1, frozenset({"ux", "uy"})),
            BoundaryCondition(2, frozenset({"ux"})),)))  # wrong dofs at node 2
        assert evaluate_ir(pred, truth).bc_detection == pytest.approx(0.5)

    def test_l1_invalid_prediction_scored_best_effort(self):
        truth = four_node_truth()
        pred = replace(truth, loads=())  # empty loads: L1 finding
        m = evaluate_ir(pred, truth)
        assert not m.schema_valid
        assert m.node_accuracy == 1.0

    def test_identity_on_generated_models(self):
        rng = random.Random(5)
        for _ in range(10):
            model = random_frame_model(rng)
            m = evaluate_ir(model, model)
            assert (m.node_accuracy, m.connectivity_f1, m.overall) == (1.0, 1.0, 1.0)

    def test_reversed_and_duplicated_elements_f1(self):
        truth = four_node_truth()
        # reversed order, and element 2 drawn twice: 3 of 4 predicted pairs
        # are true positives, all 3 reference pairs are found -> F1 = 6/7
        pred = replace(truth, elements=tuple(reversed(truth.elements))
                       + (replace(truth.elements[1], id=4),))
        assert evaluate_ir(pred, truth).connectivity_f1 == pytest.approx(6 / 7)
        both = replace(truth, elements=truth.elements + (replace(truth.elements[1], id=4),))
        assert evaluate_ir(pred, both).connectivity_f1 == 1.0

    def test_nan_nodes_never_match(self, truss):
        nan = replace(truss, nodes=tuple(replace(n, x=math.nan, y=math.nan)
                                         for n in truss.nodes))
        m = evaluate_ir(nan, truss)
        assert (m.node_accuracy, m.connectivity_f1, m.overall) == (0.0, 0.0, 0.0)
        one_nan = replace(truss, nodes=truss.nodes[:2] + (replace(truss.nodes[2], y=math.nan),))
        m = evaluate_ir(truss, one_nan)
        assert (m.node_accuracy, m.connectivity_f1) == (pytest.approx(2 / 3), 0.0)

    @pytest.mark.parametrize("nan_first", [False, True])
    def test_non_finite_reference_node_leaves_the_diagonal_alone(self, truss, nan_first):
        # the diagonal comes from nodes 1 and 2 alone (2 m, threshold 0.04 m),
        # wherever the NaN node is listed, so node 1 moved 0.03 m still matches
        nan_node = replace(truss.nodes[2], y=math.nan)
        nodes = (nan_node,) + truss.nodes[:2] if nan_first else truss.nodes[:2] + (nan_node,)
        pred = replace(truss, nodes=(replace(truss.nodes[0], x=0.03),) + truss.nodes[1:])
        m = evaluate_ir(pred, replace(truss, nodes=nodes))
        assert m.node_accuracy == pytest.approx(2 / 3)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_non_finite_threshold(self, tol):
        truth = four_node_truth()
        far = replace(truth, nodes=truth.nodes[:3] + (replace(truth.nodes[3], x=-1.7e308),))
        m = evaluate_ir(far, truth, tol)
        # NaN matches nothing; infinity matches every finite distance
        assert m.node_accuracy == (0.0 if math.isnan(tol) else 1.0)

    @pytest.mark.parametrize("xs,expected", [
        ((0.0, 0.0, 0.0), 1.0),              # zero diagonal: coincident nodes pair one to one
        ((0.0, 5e-324, 1e-323), 1.0),        # subnormal diagonal: threshold rounds to 0
        ((-1.7e308, 0.0, 1.7e308), 1.0),     # diagonal overflows to infinity
        ((math.inf, 0.0, -math.inf), 1 / 3),  # only the finite node matches
    ])
    def test_degenerate_reference_geometry(self, truss, xs, expected):
        flat = replace(truss, nodes=tuple(replace(n, x=x, y=0.0) for n, x in zip(truss.nodes, xs)))
        assert evaluate_ir(flat, flat).node_accuracy == pytest.approx(expected)


def naive_evaluate_ir(predicted: IRModel, truth: IRModel,
                      tol: float = DEFAULT_MATCH_TOLERANCE) -> Metrics:
    """Sort-all-pairs reference for ``evaluate_ir`` on finite coordinates."""
    pred, ref = predicted.node_positions(), truth.node_positions()
    if predicted.coordinate_mode != truth.coordinate_mode:
        pred, ref = unit_box(pred), unit_box(ref)
    diagonal = 0.0
    if ref:
        xs, ys = [p[0] for p in ref.values()], [p[1] for p in ref.values()]
        diagonal = math.hypot(max(xs) - min(xs), max(ys) - min(ys))
    threshold = tol * diagonal if diagonal > 0 else tol
    mapping: dict[int, int] = {}
    for d, pid, tid in sorted((math.dist(p, q), pid, tid)
                              for pid, p in pred.items() for tid, q in ref.items()):
        if d > threshold:
            break
        if pid not in mapping and tid not in mapping.values():
            mapping[pid] = tid
    denom = max(len(pred), len(ref))
    node_accuracy = len(mapping) / denom if denom else 1.0
    pred_pairs = [tuple(sorted((mapping[a], mapping[b]))) if a in mapping and b in mapping
                  else (-e.id, -e.id) for e in predicted.elements for a, b in [e.node_ids]]
    remaining = [tuple(sorted(e.node_ids)) for e in truth.elements]
    n_truth, tp = len(remaining), 0
    for p in pred_pairs:
        if p in remaining:
            remaining.remove(p)
            tp += 1
    if not pred_pairs and not n_truth:
        f1 = 1.0
    elif tp == 0:
        f1 = 0.0
    else:
        precision, recall = tp / len(pred_pairs), tp / n_truth
        f1 = 2 * precision * recall / (precision + recall)
    pred_bcs = {b.node_id: b.constrained_dofs for b in predicted.boundary_conditions}
    truth_bcs = {b.node_id: b.constrained_dofs for b in truth.boundary_conditions}
    back = {t: p for p, t in mapping.items()}
    bc = (sum(1 for t, dofs in truth_bcs.items() if t in back and pred_bcs.get(back[t]) == dofs)
          / len(truth_bcs)) if truth_bcs else 1.0
    return Metrics(schema_valid=not check_l1(predicted), node_accuracy=node_accuracy,
                   connectivity_f1=f1, bc_detection=bc, overall=(node_accuracy + f1) / 2.0)


FINITE = st.one_of(st.integers(-6, 6).map(float), st.integers(-12, 12).map(lambda k: k / 2),
                   st.floats(min_value=-10.0, max_value=10.0))
ANY_FLOAT = st.one_of(FINITE, st.floats(),
                      st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324,
                                       -5e-324, 1e-310, 1.7e308, -1.7e308]))


@st.composite
def ir_models(draw, coord) -> IRModel:
    """Models ``deserialize`` accepts: duplicate, non-positive and dangling
    ids, self-loops, either coordinate mode, coordinates drawn from ``coord``."""
    ids = draw(st.lists(st.integers(-2, 12), max_size=10))
    pool = st.sampled_from(ids or [1])
    elements = tuple(Element(k + 1, "truss_bar", (draw(pool), draw(pool)), 1)
                     for k in range(draw(st.integers(0, 10))))
    bcs = tuple(BoundaryCondition(draw(pool), frozenset(draw(st.sets(
        st.sampled_from(DOF_ORDER), min_size=1)))) for _ in range(draw(st.integers(0, 3))))
    return IRModel(nodes=tuple(Node(i, draw(coord), draw(coord)) for i in ids),
                   elements=elements, materials=(STEEL,), sections=(BAR,),
                   boundary_conditions=bcs, loads=(Load(draw(pool), 0.0, -1.0, 0.0),),
                   coordinate_mode=draw(st.sampled_from(COORDINATE_MODES)))


@settings(max_examples=150, deadline=None)
@given(ir_models(FINITE), ir_models(FINITE),
       st.one_of(st.sampled_from([0.0, 0.02, 0.1, 0.25]), st.floats(0.0, 1.0)))
def test_evaluate_ir_equals_sort_all_pairs_reference(predicted, truth, tol):
    assert evaluate_ir(predicted, truth, tol) == naive_evaluate_ir(predicted, truth, tol)


@settings(max_examples=150, deadline=None)
@given(ir_models(ANY_FLOAT), ir_models(ANY_FLOAT),
       st.one_of(st.just(DEFAULT_MATCH_TOLERANCE), ANY_FLOAT))
def test_evaluate_ir_never_raises(predicted, truth, tol):
    m = evaluate_ir(predicted, truth, tol)
    assert 0.0 <= m.node_accuracy <= 1.0 and 0.0 <= m.connectivity_f1 <= 1.0


def report(case_id: str, success: bool, retry: int | None = 0,
           fallback: bool = False) -> CaseReport:
    return CaseReport(
        case_id=case_id,
        metrics=Metrics(schema_valid=True, node_accuracy=1.0, connectivity_f1=1.0,
                        bc_detection=1.0, overall=1.0, execution_success=success),
        trace=TraceSummary(attempts=1, retry_count=retry, fallback_used=fallback))


class TestAggregate:
    def test_means_add_left_to_right_in_plain_doubles(self):
        # a compensated sum (Python >= 3.12's sum of floats) would give 1/3
        assert harness._mean([1e16, 1.0, -1e16]) == 0.0
        assert harness._mean([0.1] * 10) == 0.9999999999999999 / 10

    def test_all_successful(self):
        s = aggregate([report(f"c{i}", True) for i in range(10)])
        assert s.execution_success_rate == 1.0

    def test_three_of_four(self):
        s = aggregate([report("a", True), report("b", True), report("c", True),
                       report("d", False, retry=None)])
        assert s.execution_success_rate == pytest.approx(0.75)

    def test_fallback_rate_zero_when_all_k0(self):
        s = aggregate([report(f"c{i}", True, retry=0) for i in range(5)])
        assert s.fallback_activation_rate == 0.0
        assert s.retry_histogram == {0: 5}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])


class TestEmitReport:
    def test_markdown_table_columns(self):
        s = aggregate([report("a", True)])
        md = emit_report(s)
        assert "| Model | Schema Valid. | Node Acc. | Conn. F1 | BC Det. | Overall |" in md

    def test_missing_optional_fields_render_as_dash(self):
        r = report("a", False, retry=None)
        r.metrics = Metrics(schema_valid=False, node_accuracy=None,
                            connectivity_f1=None, bc_detection=None, overall=None)
        md = emit_report(r)
        assert "—" in md

    def test_deterministic_bytes(self):
        s = aggregate([report("a", True), report("b", True, retry=2)])
        assert emit_report(s) == emit_report(s)
        assert emit_report(s, "structured_text") == emit_report(s, "structured_text")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            emit_report(report("a", True), "pdf")


@pytest.fixture()
def golden_case(tmp_path):
    case_dir = tmp_path / "golden_cantilever"
    case_dir.mkdir()
    drawing = {
        "segments": [
            {"p1": [0, 0], "p2": [200, 0], "class": "structural"},
            {"p1": [0, -40], "p2": [200, -40], "class": "dimension"},
        ],
        "support_glyphs": [{"anchor": [0, 0], "kind": "fixed"}],
        "load_arrows": [{"anchor": [200, 0], "direction": [0, -1], "magnitude": "1 kN"}],
        "dimension_annotations": [{"segment": 1, "value_m": 2.0}],
    }
    (case_dir / "drawing.json").write_text(json.dumps(drawing))
    (case_dir / "context.txt").write_text(
        "material: E=210e9 nu=0.3 rho=7850\nsection: A=0.01 I=1e-6\n"
        "elements: frame\nmode: static\n")
    (case_dir / "truth.ir.json").write_text(serialize(cantilever_model()))
    (case_dir / "case.json").write_text(json.dumps({
        "id": "golden_cantilever", "drawing": "drawing.json",
        "context": "context.txt", "truth_ir": "truth.ir.json",
        "expected_mode": "static"}))
    return case_dir


class TestRunCase:
    def test_golden_cantilever_matches_closed_form(self, golden_case, tmp_path):
        case = load_case(golden_case)
        config = RunConfig(workspace_root=tmp_path / "ws")
        result = run_case(case, config)
        assert result.error is None
        assert result.metrics.execution_success
        assert result.metrics.overall == 1.0
        exact = 1000.0 * 2.0**3 / (3 * 210e9 * 1e-6)
        assert result.highlights["max_displacement_m"] == pytest.approx(exact, rel=1e-9)

    def test_unsupported_structure_recorded_not_raised(self, golden_case, tmp_path):
        doc = json.loads((golden_case / "drawing.json").read_text())
        doc["support_glyphs"] = []  # no supports: L1/L2 can never pass
        (golden_case / "drawing.json").write_text(json.dumps(doc))
        case = load_case(golden_case)
        result = run_case(case, RunConfig(workspace_root=tmp_path / "ws"))
        assert result.error is not None and "perception" in result.error
        assert not result.metrics.execution_success

    def test_rerun_identical_report(self, golden_case, tmp_path):
        case = load_case(golden_case)
        config = RunConfig(workspace_root=tmp_path / "ws")
        r1 = run_case(case, config)
        r2 = run_case(case, config)
        assert emit_report(r1) == emit_report(r2)

    def test_missing_case_file(self, golden_case):
        (golden_case / "context.txt").unlink()
        with pytest.raises(CaseLoadError):
            load_case(golden_case)

    def test_fallback_failure_reports_its_trace(self, suite_dir, tmp_path):
        # the rejected attempt and the fallback, which the statement budget aborts
        config = RunConfig(generator_spec="faulty:type_ii:stubborn", max_retries=0,
                           limits=Limits(max_statements=3), workspace_root=tmp_path / "ws")
        result = run_case(load_case(suite_dir / "truss_two_bar"), config)
        assert result.error == ("synthesis: fallback failure: deterministic fallback failed "
                                "with status ABORTED: unverified results")
        assert (result.trace.attempts, result.trace.retry_count) == (2, None)
        assert result.trace.fallback_used
        assert result.trace.lessons == tuple(reflect(["parse"]))

    def test_retry_count_is_the_verified_attempt(self, golden_case, tmp_path, monkeypatch):
        class WrongModeFirst:
            """First script completes a modal run for a static model; the
            repair is the correct script."""

            def generate(self, model, memory_context):
                return lower_ir(model).replace("analyze static", "analyze modal count 1")

            def repair(self, script, context):
                return script.replace("analyze modal count 1", "analyze static")

        monkeypatch.setattr(harness, "make_generator", lambda spec: WrongModeFirst())
        result = run_case(load_case(golden_case), RunConfig(workspace_root=tmp_path / "ws"))
        assert result.metrics.execution_success
        assert (result.trace.attempts, result.trace.retry_count) == (2, 1)

        exhausted = RunConfig(workspace_root=tmp_path / "ws", max_retries=0,
                              fallback_enabled=False)
        result = run_case(load_case(golden_case), exhausted)
        assert not result.metrics.execution_success
        assert (result.trace.attempts, result.trace.retry_count) == (1, None)

    def test_perceived_mode_must_be_the_expected_one(self, suite_dir, tmp_path):
        case_dir = tmp_path / "truss_two_bar"
        shutil.copytree(suite_dir / "truss_two_bar", case_dir)
        manifest = json.loads((case_dir / "case.json").read_text())
        (case_dir / "case.json").write_text(json.dumps({**manifest, "expected_mode": "modal"}))
        result = run_case(load_case(case_dir), RunConfig(workspace_root=tmp_path / "ws"))
        assert result.error == ("perception: perceived analysis mode 'static', "
                                "expected 'modal'")
        assert not result.metrics.execution_success and result.highlights == {}

    def test_no_expected_mode_takes_any(self, suite_dir, tmp_path):
        case = replace(load_case(suite_dir / "truss_two_bar"), expected_mode=None)
        result = run_case(case, RunConfig(workspace_root=tmp_path / "ws"))
        assert result.error is None and result.metrics.execution_success


class TestSuiteLoading:
    def test_bundled_suite_loads(self, suite_dir):
        cases = load_suite(suite_dir)
        assert len(cases) == 15
        modes = {c.expected_mode for c in cases}
        assert modes == {"static", "modal", "topology_optimization"}

    def test_manifests_load_as_written(self, suite_dir, golden_case):
        for case_dir in [golden_case, *sorted(p.parent for p in suite_dir.glob("*/case.json"))]:
            doc = json.loads((case_dir / "case.json").read_text())
            assert load_case(case_dir) == CaseSpec(
                case_id=doc["id"], drawing_path=case_dir / doc["drawing"],
                context_path=case_dir / doc["context"],
                truth_ir_path=case_dir / doc["truth_ir"], expected_mode=doc["expected_mode"])

    @pytest.mark.parametrize("edit,path", [
        (lambda d: {**d, "drawing": 5}, "$.drawing"),
        (lambda d: {**d, "expected_mode": "unknown"}, "$.expected_mode"),
        (lambda d: [d], "$"),
        (lambda d: {k: v for k, v in d.items() if k != "id"}, "$.id"),
        (lambda d: {**d, "notes": "x"}, "$.notes"),
    ], ids=["drawing-number", "unknown-mode", "list-document", "missing-id", "unknown-field"])
    def test_malformed_manifest_names_its_path(self, golden_case, edit, path):
        manifest = golden_case / "case.json"
        manifest.write_text(json.dumps(edit(json.loads(manifest.read_text()))))
        with pytest.raises(CaseLoadError, match=re.escape(f"{manifest}: {path}:")):
            load_case(golden_case)

    def test_undecodable_manifest(self, golden_case):
        (golden_case / "case.json").write_bytes(b'{"id": "\xff"}')
        with pytest.raises(CaseLoadError, match="cannot load case manifest"):
            load_case(golden_case)

    def test_empty_suite_rejected(self, tmp_path):
        with pytest.raises(CaseLoadError):
            load_suite(tmp_path)

    def test_topopt_case_report_highlights(self, suite_dir, tmp_path):
        from vfea.harness import run_case
        case = next(c for c in load_suite(suite_dir) if c.expected_mode
                    == "topology_optimization")
        r = run_case(case, RunConfig(workspace_root=tmp_path / "ws"))
        assert r.metrics.execution_success
        assert r.highlights["final_volume_fraction"] <= 0.5 + 1e-6
        assert "final_compliance_j" in r.highlights

    def test_modal_case_report_highlights(self, suite_dir, tmp_path):
        from vfea.harness import run_case
        case = next(c for c in load_suite(suite_dir) if c.expected_mode == "modal")
        r = run_case(case, RunConfig(workspace_root=tmp_path / "ws"))
        assert r.metrics.execution_success
        assert r.highlights["first_frequency_hz"] > 0

    def test_suite_runs_are_deterministic(self, suite_dir, tmp_path):
        from vfea.harness import run_suite

        def run(tag):
            memory = tmp_path / f"{tag}.jsonl"
            summary = run_suite(load_suite(suite_dir),
                                RunConfig(generator_spec="faulty:type_ii",
                                          workspace_root=tmp_path / f"ws-{tag}",
                                          memory_path=memory))
            lines = [json.loads(line) for line in memory.read_text().splitlines()]
            for doc in lines:
                del doc["created_at"]
            return emit_report(summary), lines

        first, second = run("first"), run("second")
        assert first[1]  # the faulty generator leaves failure records behind
        assert first == second


class TestCLI:
    def test_validate_clean(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(serialize(two_bar_truss()))
        assert cli_main(["validate", "--ir", str(path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_validate_findings_exit_one(self, tmp_path, capsys):
        bad = replace(two_bar_truss(), boundary_conditions=())
        path = tmp_path / "model.json"
        path.write_text(serialize(bad))
        assert cli_main(["validate", "--ir", str(path)]) == 1
        assert "L1/empty-array" in capsys.readouterr().out

    def test_validate_unreadable_exit_two(self, tmp_path):
        assert cli_main(["validate", "--ir", str(tmp_path / "missing.json")]) == 2

    @pytest.mark.parametrize("command", [["validate", "--ir", "{latin1}"],
                                         ["eval", "--pred", "{latin1}", "--truth", "{valid}"]],
                             ids=["validate", "eval"])
    def test_undecodable_input_exit_two(self, tmp_path, capsys, command):
        (tmp_path / "latin1.json").write_bytes(b'{"nodes": "\xe9"}')
        (tmp_path / "valid.json").write_text(serialize(two_bar_truss()))
        argv = [a.format(latin1=tmp_path / "latin1.json", valid=tmp_path / "valid.json")
                for a in command]
        assert cli_main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_out_of_range_number_is_a_schema_error(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(serialize(two_bar_truss()).replace('"x": 2.0', '"x": 1' + "0" * 400))
        assert cli_main(["validate", "--ir", str(path)]) == 1
        assert "$.nodes[1].x: number out of float range" in capsys.readouterr().out
        assert cli_main(["eval", "--pred", str(path), "--truth", str(path)]) == 2
        assert "schema error" in capsys.readouterr().err

    def test_eval_identity(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(serialize(two_bar_truss()))
        assert cli_main(["eval", "--pred", str(path), "--truth", str(path)]) == 0
        out = capsys.readouterr().out
        assert "overall: 1.000000" in out

    def test_run_command(self, golden_case, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("VFEA_WORKSPACE_ROOT", str(tmp_path / "env-ws"))
        out_dir = tmp_path / "out"
        code = cli_main([
            "run", "--drawing", str(golden_case / "drawing.json"),
            "--context", str(golden_case / "context.txt"),
            "--truth", str(golden_case / "truth.ir.json"),
            "--out", str(out_dir)])
        assert code == 0
        assert (out_dir / "drawing.md").exists()
        assert (tmp_path / "env-ws").exists()  # env var override honored

    def test_run_missing_input_exit_two(self, tmp_path):
        assert cli_main(["run", "--drawing", "/nope.json", "--context", "/nope.txt",
                         "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("fault", ["drawing-not-utf8", "memory-is-dir",
                                       "memory-under-file", "workspace-under-file"])
    def test_run_unusable_input_exit_two(self, golden_case, tmp_path, capsys, monkeypatch,
                                         fault):
        monkeypatch.setenv("VFEA_WORKSPACE_ROOT", str(tmp_path / "ws"))
        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file")
        drawing = golden_case / "drawing.json"
        extra = ["--memory", str(tmp_path / "m.jsonl")]
        if fault == "drawing-not-utf8":
            drawing = tmp_path / "latin1.json"
            drawing.write_bytes(b'{"segments": "\xe9"}')
        elif fault == "memory-is-dir":
            extra = ["--memory", str(tmp_path)]
        elif fault == "memory-under-file":
            extra = ["--memory", str(blocker / "m.jsonl")]
        else:
            monkeypatch.setenv("VFEA_WORKSPACE_ROOT", str(blocker / "ws"))
        code = cli_main(["run", "--drawing", str(drawing),
                         "--context", str(golden_case / "context.txt"),
                         "--out", str(tmp_path / "out"), *extra])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_run_case_failure_exit_one(self, golden_case, tmp_path, monkeypatch):
        monkeypatch.setenv("VFEA_WORKSPACE_ROOT", str(tmp_path / "ws"))
        code = cli_main([
            "run", "--drawing", str(golden_case / "drawing.json"),
            "--context", str(golden_case / "context.txt"),
            "--out", str(tmp_path / "out"),
            "--generator", "faulty:type_i:stubborn", "--fallback", "off"])
        assert code == 1

    def test_bench_unknown_generator_exit_two(self, suite_dir, tmp_path):
        code = cli_main(["bench", "--suite", str(suite_dir), "--generator", "wat",
                         "--memory", str(tmp_path / "m.jsonl")])
        assert code == 2

    def test_bench_records_preflight_failures_in_memory(self, suite_dir, tmp_path,
                                                        monkeypatch):
        # type II faults stop at parsing, before the sandbox: each case must
        # still leave its failure record next to its success record
        monkeypatch.setenv("VFEA_WORKSPACE_ROOT", str(tmp_path / "ws"))
        memory = tmp_path / "m.jsonl"
        code = cli_main(["bench", "--suite", str(suite_dir), "--generator", "faulty:type_ii",
                         "--memory", str(memory), "--out", str(tmp_path / "out")])
        assert code == 0
        records = ExperienceBuffer(memory).records
        failures = [r for r in records if r.outcome == "failure"]
        assert len(failures) == len(records) // 2 == 15
        assert {r.error.category for r in failures} == {"type_ii_hallucination"}
