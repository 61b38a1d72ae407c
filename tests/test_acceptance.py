"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <id>: PASS|FAIL` line (visible with -s);
a FAIL line always comes with the failing assertion.
"""

from __future__ import annotations

import contextlib
import json
import math
import random
import time
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import (BAR, STEEL, cantilever_model, ground_structure,
                      modal_cantilever, random_frame_model, two_bar_truss)
from test_validation import bc_model, oracle_rank
from vfea.harness import RunConfig, emit_report, evaluate_ir, load_suite, run_suite
from vfea.ir import (AnalysisSpec, BoundaryCondition, Element, IRModel, Load,
                     Node, Section, canonicalize)
from vfea.memory import (ErrorSignature, ExperienceBuffer, ExperienceRecord,
                         StructuralSignature, _record_to_line)
from vfea.perception import infer_scale, parse_drawing
from vfea.simscript import ScriptParseError, lower_ir, parse_script, preflight
from vfea.solver import optimize_topology, solve_modal, solve_static
from vfea.validation import audit, restraint_rank


@contextlib.contextmanager
def criterion(label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS")


def bench_cli(suite_dir: Path, tmp_path: Path, tag: str, generator: str,
              fallback: bool = True, monkeypatch=None) -> tuple[int, dict]:
    """Drive the real `vfea bench` command and load the written summary."""
    from vfea.cli import main as cli_main
    out_dir = tmp_path / f"out-{tag}"
    if monkeypatch is not None:
        monkeypatch.setenv("VFEA_WORKSPACE_ROOT", str(tmp_path / f"ws-{tag}"))
    code = cli_main(["bench", "--suite", str(suite_dir), "--out", str(out_dir),
                     "--generator", generator, "--max-retries", "3",
                     "--fallback", "on" if fallback else "off",
                     "--memory", str(tmp_path / f"mem-{tag}.jsonl")])
    summary = json.loads((out_dir / "summary.json").read_text())
    return code, summary


def test_criterion_1_reflexive_recovery(suite_dir, tmp_path, capsys, monkeypatch):
    """Fault-heeding mocks of every failure family recover on every case
    within the retry budget and without touching the fallback."""
    with criterion("1 reflexive-recovery"):
        start = time.monotonic()
        for fault in ("type_i", "type_ii", "type_iii"):
            code, summary = bench_cli(suite_dir, tmp_path, fault,
                                      f"faulty:{fault}", monkeypatch=monkeypatch)
            assert code == 0
            assert summary["n_cases"] == 15
            assert summary["execution_success_rate"] == 1.0
            assert summary["fallback_activation_rate"] == 0.0
            for case in summary["cases"]:
                retry = case["trace"]["retry_count"]
                assert retry is not None and retry <= 3
        assert time.monotonic() - start < 60.0


def test_criterion_2_symbolic_handover(suite_dir, tmp_path, capsys, monkeypatch):
    """The stubborn generator forces the deterministic handover everywhere;
    with the handover disabled every case surfaces the exhausted trace."""
    with criterion("2 symbolic-handover"):
        code, summary = bench_cli(suite_dir, tmp_path, "stubborn",
                                  "faulty:type_ii:stubborn", monkeypatch=monkeypatch)
        assert code == 0
        assert summary["execution_success_rate"] == 1.0
        assert summary["fallback_activation_rate"] == 1.0
        assert all(c["trace"]["fallback_used"] for c in summary["cases"])

        code, off = bench_cli(suite_dir, tmp_path, "nofb", "faulty:type_ii:stubborn",
                              fallback=False, monkeypatch=monkeypatch)
        assert code == 1  # case failures surface in the exit code
        assert off["execution_success_rate"] == 0.0
        for case in off["cases"]:
            assert case["error"] and "retry budget exhausted" in case["error"]
            assert case["trace"]["attempts"] == 4  # the full K+1 attempt trace


def test_criterion_3_solver_oracles():
    with criterion("3 solver-oracles"):
        # cantilever tip deflection against P L^3 / (3 E I)
        r = solve_static(cantilever_model(load=-1000.0, length=2.0))
        exact = -1000.0 * 8.0 / (3 * 210e9 * 1e-6)
        assert abs(r.displacements[2][1] - exact) <= 1e-9 * abs(exact)

        # two-bar truss member forces against the method of joints
        rt = solve_static(two_bar_truss(load=-10_000.0))
        joints = -10_000.0 / (2 * math.sin(math.pi / 4))
        for force in rt.axial_force.values():
            assert abs(force - joints) <= 1e-9 * abs(joints)

        # global equilibrium residual on every static case exercised here
        rng = random.Random(314)
        for _ in range(25):
            res = solve_static(random_frame_model(rng))
            assert res.equilibrium_residual <= 1e-8

        # first cantilever frequency against the closed form, 8 subdivisions
        rm = solve_modal(modal_cantilever(), 1, subdivisions=8)
        lam = 1.8751040687119611
        f1 = (lam**2 / (2 * math.pi)) * math.sqrt(210e9 * 1e-6 / (7850.0 * 1e-2 * 16.0))
        assert abs(rm.frequencies_hz[0] - f1) <= 0.02 * f1


def test_criterion_4_topology_optimization():
    with criterion("4 topology-optimization"):
        model = ground_structure(volfrac=0.5, iters=40)
        result = optimize_topology(model)
        assert result.final_volume_fraction <= 0.5 + 1e-6
        assert result.compliance_history[-1] < result.compliance_history[0]

        pos = model.node_positions()
        mirror = {nid: next(m for m, p in pos.items() if p == (2.0 - x, y))
                  for nid, (x, y) in pos.items()}
        by_pair = {frozenset(e.node_ids): e.id for e in model.elements}
        a_max = max(s.area for s in model.sections)
        for e in model.elements:
            partner = by_pair[frozenset(mirror[n] for n in e.node_ids)]
            assert abs(result.areas[e.id] - result.areas[partner]) <= 1e-6 * a_max


def _labeled_corpus() -> list[tuple[IRModel, object, object, set[str]]]:
    """(model, drawing, scale, expected finding codes); 30 entries spanning
    valid models and every audit level."""
    corpus: list[tuple[IRModel, object, object, set[str]]] = []
    rng = random.Random(77)

    valid = [cantilever_model(), two_bar_truss(), ground_structure(),
             modal_cantilever()] + [random_frame_model(rng) for _ in range(10)]
    for m in valid:
        corpus.append((m, None, None, set()))

    t = two_bar_truss()
    c = cantilever_model()
    corpus.append((replace(t, nodes=()), None, None, {"empty-array", "dangling-ref"}))
    corpus.append((replace(t, elements=t.elements + (Element(3, "truss_bar", (1, 99), 1),)),
                   None, None, {"dangling-ref"}))
    corpus.append((replace(t, elements=t.elements + (Element(4, "truss_bar", (2, 2), 1),)),
                   None, None, {"self-loop"}))
    corpus.append((replace(t, nodes=t.nodes + (Node(1, 9.0, 9.0),)),
                   None, None, {"duplicate-id"}))
    corpus.append((replace(t, loads=(Load(3, 0.0, 0.0, 0.0),)), None, None, {"zero-load"}))
    corpus.append((replace(t, analysis=AnalysisSpec(mode="modal")),
                   None, None, {"mode-params"}))
    corpus.append((replace(c, sections=(Section(1, 1, 1e-2, None),)),
                   None, None, {"missing-inertia"}))
    corpus.append((replace(t, coordinate_mode="normalized"),
                   None, None, {"normalized-bounds"}))
    corpus.append((replace(t, boundary_conditions=t.boundary_conditions + (
        BoundaryCondition(3, frozenset()),)), None, None, {"empty-dofs"}))

    corpus.append((replace(c, boundary_conditions=(
        BoundaryCondition(1, frozenset({"ux", "uy"})),)),
        None, None, {"rigid-body-motion"}))
    floating = canonicalize(replace(t, nodes=t.nodes + (
        Node(10, 10.0, 0.0), Node(11, 12.0, 0.0), Node(12, 11.0, 1.5)),
        elements=t.elements + (Element(10, "truss_bar", (10, 11), 1),
                               Element(11, "truss_bar", (11, 12), 1),
                               Element(12, "truss_bar", (10, 12), 1))))
    corpus.append((floating, None, None, {"floating-substructure"}))
    corpus.append((canonicalize(replace(t, elements=t.elements + (
        Element(3, "truss_bar", (3, 1), 1),))), None, None, {"duplicate-element"}))
    corpus.append((canonicalize(replace(t, nodes=t.nodes + (Node(4, 1.0, 1.0),),
                                        elements=t.elements + (
        Element(3, "truss_bar", (3, 4), 1),))), None, None, {"zero-length-element"}))

    corpus.append((replace(t, materials=(replace(STEEL, poisson_ratio=-0.1),)),
                   None, None, {"poisson-range"}))
    corpus.append((replace(t, materials=(replace(STEEL, youngs_modulus=5e13),)),
                   None, None, {"modulus-range"}))

    doc = json.dumps({
        "segments": [{"p1": [0, 0], "p2": [200, 0], "class": "structural"},
                     {"p1": [0, -40], "p2": [200, -40], "class": "dimension"}],
        "support_glyphs": [{"anchor": [0, 0], "kind": "fixed"}],
        "load_arrows": [{"anchor": [200, 0], "direction": [0, -1], "magnitude": "1 kN"}],
        "dimension_annotations": [{"segment": 1, "value_m": 3.0}]})
    drawing = parse_drawing(doc)
    corpus.append((cantilever_model(), drawing, infer_scale(drawing),
                   {"unrepresented-dimension"}))
    return corpus


def test_criterion_5_validation_correctness():
    with criterion("5 validation-correctness"):
        corpus = _labeled_corpus()
        assert len(corpus) == 30
        for model, drawing, scale, expected in corpus:
            report = audit(model, drawing, scale)
            assert report.clean == (not expected)
            assert expected <= {f.code for f in report.findings}

        rng = random.Random(1789)
        for _ in range(200):
            pattern = [(rng.uniform(-5, 5), rng.uniform(-5, 5),
                        rng.choice(["ux", "uy", "rz", "ux,uy", "ux,rz",
                                    "uy,rz", "ux,uy,rz"]))
                       for _ in range(rng.randint(0, 5))]
            m = bc_model(pattern)
            assert restraint_rank(m) == oracle_rank(m)


UNKNOWN_STATEMENTS = ["mesh_edges part1", "job_submit all", "set_view iso",
                      "mdb_save model.cae", "regenerate assembly"]


def _script_corpus() -> dict[str, list[str]]:
    """20 scripts per fault family plus 20 clean controls."""
    rng = random.Random(4242)
    bases = [lower_ir(random_frame_model(rng)) for _ in range(20)]
    corpus: dict[str, list[str]] = {"clean": list(bases), "type_i": [], "type_ii": [],
                                    "type_iii": []}
    for i, base in enumerate(bases):
        lines = base.splitlines()
        drop = ("analyze", "end", "write_results")[i % 3]
        corpus["type_i"].append(
            "\n".join(l for l in lines if not l.startswith(drop)) + "\n")
        insert_at = 1 + (i % (len(lines) - 2))
        hallucinated = list(lines)
        hallucinated.insert(insert_at, UNKNOWN_STATEMENTS[i % len(UNKNOWN_STATEMENTS)])
        corpus["type_ii"].append("\n".join(hallucinated) + "\n")
        unsafe = list(lines)
        unsafe.insert(insert_at, "delete model root")
        corpus["type_iii"].append("\n".join(unsafe) + "\n")
    return corpus


def _detect(script: str, root: Path) -> set[str]:
    try:
        ast = parse_script(script)
    except ScriptParseError as exc:
        return {"type_ii"} if "unknown statement" in exc.reason else {"parse-other"}
    kinds = {v.kind for v in preflight(ast, root)}
    detected = set()
    if "lifecycle" in kinds:
        detected.add("type_i")
    if "safety" in kinds:
        detected.add("type_iii")
    if "isolation" in kinds:
        detected.add("isolation")
    return detected


def test_criterion_6_preflight_fault_detection():
    """100% precision and recall per fault family on the injected corpus."""
    with criterion("6 preflight-detection"):
        root = Path("/srv/check")
        corpus = _script_corpus()
        assert sum(len(v) for v in corpus.values()) == 80
        for family, scripts in corpus.items():
            assert len(scripts) == 20
            for script in scripts:
                detected = _detect(script, root)
                if family == "clean":
                    assert detected == set()
                else:
                    assert detected == {family}  # recall and no cross-family noise


def test_criterion_7_retrieval_contract(tmp_path):
    with criterion("7 retrieval-contract"):
        def sig(nn, ne):
            return StructuralSignature(nn, ne, frozenset({"truss_bar"}), 1, 2)

        def rec(signature, tokens, stamp):
            return ExperienceRecord(signature=signature,
                                    error=ErrorSignature("other", frozenset(tokens)),
                                    lesson=" ".join(sorted(tokens)),
                                    script_excerpt="model begin", outcome="failure",
                                    created_at=stamp)

        # enumerated density fixtures against a query of density 1.0
        buf = ExperienceBuffer()
        fixtures = [(sig(2, 2), True), (sig(4, 2), True), (sig(1, 2), True),
                    (sig(5, 2), False), (sig(2, 5), False), (sig(9, 2), False),
                    (sig(3, 2), True), (sig(21, 10), False)]
        for i, (s, _) in enumerate(fixtures):
            buf.record(rec(s, {f"tok{i}"}, float(i)))
        got = buf.retrieve(sig(2, 2), ErrorSignature("other", frozenset()), 50)
        kept = {r.signature for r in got}
        for s, keep in fixtures:
            assert (s in kept) == keep, s

        # top-k ordering against a hand-computed Jaccard oracle
        buf2 = ExperienceBuffer()
        sets = [{"a", "b", "c", "e"}, {"a", "x", "y", "z"}, {"a", "b", "x", "y"},
                {"m", "n"}, {"a", "b", "c", "d"}]
        for i, tokens in enumerate(sets):
            buf2.record(rec(sig(3, 2), tokens, float(i)))
        query = ErrorSignature("other", frozenset({"a", "b", "c", "d"}))

        def hand_jaccard(s):
            q = {"a", "b", "c", "d"}
            return len(q & s) / len(q | s)

        expected = [" ".join(sorted(s)) for s in
                    sorted(sets, key=hand_jaccard, reverse=True)][:3]
        got2 = [r.lesson for r in buf2.retrieve(sig(3, 2), query, 3)]
        assert got2 == expected

        # byte-exact persistence round trip
        path = tmp_path / "buffer.jsonl"
        buf3 = ExperienceBuffer(path)
        for i in range(7):
            buf3.record(rec(sig(3, 2), {f"t{i}", "shared"}, float(i)))
        raw = path.read_bytes()
        reloaded = ExperienceBuffer(path)
        assert "".join(_record_to_line(r) + "\n"
                       for r in reloaded.records).encode() == raw


def test_criterion_8_metrics_sanity():
    with criterion("8 metrics-sanity"):
        rng = random.Random(2718)
        for _ in range(50):
            model = random_frame_model(rng)
            m = evaluate_ir(model, model)
            assert (m.node_accuracy, m.connectivity_f1, m.bc_detection,
                    m.overall) == (1.0, 1.0, 1.0, 1.0)

        truth = canonicalize(IRModel(
            nodes=(Node(1, 0.0, 0.0), Node(2, 4.0, 0.0), Node(3, 4.0, 3.0),
                   Node(4, 0.0, 3.0)),
            elements=(Element(1, "truss_bar", (1, 2), 1),
                      Element(2, "truss_bar", (2, 3), 1),
                      Element(3, "truss_bar", (3, 4), 1)),
            materials=(STEEL,), sections=(BAR,),
            boundary_conditions=(BoundaryCondition(1, frozenset({"ux", "uy"})),),
            loads=(Load(3, 0.0, -1.0, 0.0),)))
        missing = canonicalize(IRModel(
            nodes=truth.nodes[:3], elements=truth.elements[:2],
            materials=truth.materials, sections=truth.sections,
            boundary_conditions=truth.boundary_conditions, loads=truth.loads))
        assert evaluate_ir(missing, truth).node_accuracy == 0.75
        spurious = canonicalize(replace(truth, elements=truth.elements + (
            Element(4, "truss_bar", (1, 4), 1),)))
        assert evaluate_ir(spurious, truth).connectivity_f1 == pytest.approx(6 / 7)


def _tree_snapshot(root: Path, skip: set[Path]) -> dict:
    out = {}
    for p in sorted(root.rglob("*")):
        if any(s in p.parents or p == s for s in skip):
            continue
        st = p.stat()
        out[str(p)] = (st.st_size, st.st_mtime_ns)
    return out


def test_criterion_9_isolation_and_determinism(suite_dir, tmp_path):
    with criterion("9 isolation-determinism"):
        sentinel = tmp_path / "sentinel"
        sentinel.mkdir()
        (sentinel / "untouched.txt").write_text("before")

        def run(tag: str):
            out_dir = tmp_path / f"out-{tag}"
            config = RunConfig(generator_spec="perfect",
                               memory_path=tmp_path / f"mem-{tag}.jsonl",
                               workspace_root=tmp_path / f"ws-{tag}",
                               out_dir=out_dir)
            summary = run_suite(load_suite(suite_dir), config)
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / "summary.md").write_text(emit_report(summary))
            (out_dir / "summary.json").write_text(
                emit_report(summary, "structured_text"))
            for r in summary.reports:
                (out_dir / f"{r.case_id}.md").write_text(emit_report(r))
            return summary

        suite_before = _tree_snapshot(suite_dir, set())
        skip = {sentinel}
        tmp_before = _tree_snapshot(tmp_path, skip | {tmp_path})

        run("a")
        run("b")

        # inputs and the sentinel area were never written
        assert _tree_snapshot(suite_dir, set()) == suite_before
        assert _tree_snapshot(sentinel, set())[str(sentinel / "untouched.txt")][0] == 6
        # every new file lives under the designated run areas
        allowed = {tmp_path / n for n in
                   ("ws-a", "ws-b", "out-a", "out-b", "mem-a.jsonl", "mem-b.jsonl")}
        new_paths = set(_tree_snapshot(tmp_path, skip | {tmp_path})) - set(tmp_before)
        for p in new_paths:
            assert any(str(a) == p or p.startswith(str(a) + "/") for a in allowed), p

        # byte-identical reports across the two invocations
        out_a, out_b = tmp_path / "out-a", tmp_path / "out-b"
        for f in sorted(out_a.iterdir()):
            assert (out_b / f.name).read_bytes() == f.read_bytes(), f.name
