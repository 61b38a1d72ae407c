"""Per-mode facts: the analysis tables against the branches they replaced
(modes_reference.py), and the audit of element kinds and volume fractions
that a topology optimisation can honour."""

from __future__ import annotations

import math
import shutil
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import modes_reference as reference
from conftest import cantilever_model, ground_structure, modal_cantilever, two_bar_truss
from vfea.harness import RunConfig, load_case, run_case
from vfea.ir import ANALYSIS_MODES, AREA_FLOOR_RATIO, MODES, AnalysisSpec
from vfea.perception import (PerceptionError, PerceptionFailure, attach_semantics,
                             infer_scale, infer_topology, orchestrate, parse_context,
                             parse_drawing)
from vfea.sandbox import _check_work, _RuntimeStop
from vfea.simscript import _TEXT
from vfea.solver import SolverError, optimize_topology, solved_dofs
from vfea.validation import check_l1

SUITE = Path(__file__).resolve().parents[1] / "cases"
PARAMS = [p for row in MODES.values() for p in row.params]


def _states(p) -> list:
    """Values of one parameter: unset, its range ends and just outside
    them, the ends of the range the audit checked before the area floor,
    the budget limits and just past them, non-finite and huge ones."""
    if p.read is int:
        return [None, p.low, p.low - 1, -1, 2, 3, 100, 101, 200, 201, 10**30, -10**30]
    return [None, p.low, p.high, math.nextafter(p.low, -math.inf),
            math.nextafter(p.high, math.inf), 0.0, -0.0, 5e-324, 1e-300, 5e-7, 0.5,
            math.nan, math.inf, -math.inf, 1e300, -1.0]


_SPECS = st.builds(lambda mode, values: AnalysisSpec(mode, **values),
                   st.sampled_from(ANALYSIS_MODES),
                   st.fixed_dictionaries({p.attr: st.sampled_from(_states(p)) for p in PARAMS}))
_BASES = [two_bar_truss(), cantilever_model(), modal_cantilever(), ground_structure()]


def _pairs(findings) -> set:
    return {(f.code, f.subject) for f in findings}


def _outcome(call):
    """What a call returns, by repr (NaN is not equal to itself), or the
    type and text of what it raises."""
    try:
        return repr(call())
    except (TypeError, ValueError, PerceptionError) as exc:
        return type(exc).__name__, getattr(exc, "kind", None), str(exc)


def _budget_stop(spec: AnalysisSpec, dofs: int) -> str | None:
    try:
        _check_work(spec, dofs)
    except _RuntimeStop as stop:
        return str(stop)
    return None


@settings(max_examples=400, deadline=None)
@given(spec=_SPECS, base=st.sampled_from(_BASES), density=st.sampled_from([7850.0, 0.0, -1.0]),
       loaded=st.booleans(), dofs=st.sampled_from([1, 3, 100, 101, 10**6]))
@example(spec=AnalysisSpec("topology_optimization", opt_volume_fraction=5e-7),
         base=_BASES[3], density=7850.0, loaded=True, dofs=1)
@example(spec=AnalysisSpec("topology_optimization"), base=_BASES[1], density=7850.0,
         loaded=True, dofs=1)
def test_mode_rows_agree_with_the_branches(spec, base, density, loaded, dofs):
    """The same finding (code, subject) pairs, budget stop, dof count,
    priors and analyze line as the per-mode branches, except where the
    audit now rejects on purpose: a topology optimisation of anything but
    truss bars (mode-elements), and a volume fraction below the area floor."""
    model = replace(base, analysis=spec,
                    materials=tuple(replace(m, density=density) for m in base.materials),
                    loads=base.loads if loaded else ())
    found = _pairs(check_l1(model))
    expected = _pairs(reference.check_l1(model))
    if spec.mode == "topology_optimization":
        if any(e.kind != "truss_bar" for e in model.elements):
            expected.add(("mode-elements", "elements"))
        v = spec.opt_volume_fraction
        if v is not None and 0 < v < AREA_FLOOR_RATIO:
            expected.add(("mode-params", "analysis"))
    assert found == expected

    assert solved_dofs(model) == reference.solved_dofs(model)
    row = MODES[spec.mode]
    assert repr(MODES["topology_optimization"].values(spec)) == repr(
        reference.topology_params(spec))
    assert _outcome(lambda: _TEXT[spec.mode](spec)) == _outcome(
        lambda: reference.ANALYZE_TEXT[spec.mode](spec))
    # a script sets every parameter of its mode, and the budgets apply to
    # L1-clean specs only
    if not found and all(getattr(spec, p.attr) is not None for p in row.params):
        assert _budget_stop(spec, dofs) == reference.budget_stop(spec, dofs)


_DIRECTIVE_TEXT = ["1", "0", "-2", "3", " 7 ", "1e-6", "5e-7", "1e-300", "0.5", "1.5", "nan",
                   "inf", "-inf", "1e400", "9" * 30, "abc", "", "1_000", "0x10", "٣"]
_FRAME = SUITE / "frame_modal"
_DRAWING = parse_drawing((_FRAME / "drawing.json").read_text(encoding="utf-8"))
_TOPOLOGY, _SCALE = infer_topology(_DRAWING), infer_scale(_DRAWING)


@st.composite
def _contexts(draw):
    """Context text with a mode directive or none, material, section and
    element directives or none, and each parameter directive absent or set
    to a value text, in any order, sometimes twice."""
    lines = [f"mode: {draw(st.sampled_from(ANALYSIS_MODES))}"] if draw(st.booleans()) else []
    for key, props in (("material", ["E=1e9", "nu=0.25", "rho=0", "rho=x", "name=steel",
                                     "E", "E=1 E=2"]),
                       ("section", ["A=0.02", "I=2e-6", "i=x", "A=y", "a=1 i=", "="]),
                       ("elements", ["truss", "TRUSS", "frame_beam", "beam", ""])):
        if draw(st.booleans()):
            lines.append(f"{key}: {' '.join(draw(st.lists(st.sampled_from(props), max_size=3)))}")
    for p in PARAMS:
        for _ in range(draw(st.integers(0, 2))):
            lines.append(f"{p.directive}: {draw(st.sampled_from(_DIRECTIVE_TEXT))}")
    return "\n".join(draw(st.permutations(lines))) + "\n"


@settings(max_examples=300, deadline=None)
@given(_contexts())
def test_context_rows_agree_with_the_branches(text):
    """The same directives, or error, and the same perceived spec."""
    assert _outcome(lambda: parse_context(text)) == _outcome(
        lambda: reference.parse_context(text))
    assert _outcome(lambda: attach_semantics(_DRAWING, _TOPOLOGY, _SCALE, text).analysis) \
        == _outcome(lambda: reference.parse_context(text).analysis)


def _topopt_context(old: str, new: str) -> tuple[str, str]:
    case = SUITE / "topopt_ground"
    context = (case / "context.txt").read_text(encoding="utf-8")
    assert old in context
    return (case / "drawing.json").read_text(encoding="utf-8"), context.replace(old, new)


def test_topology_of_frame_members_is_an_audit_finding():
    # without `elements: truss` perception gives frame members, which the
    # optimizer cannot size
    with pytest.raises(PerceptionFailure) as err:
        orchestrate(*_topopt_context("elements: truss\n", ""))
    assert _pairs(err.value.report.findings) == {("mode-elements", "elements")}
    with pytest.raises(SolverError, match="only truss bars") as err:
        optimize_topology(replace(cantilever_model(),
                                  analysis=AnalysisSpec("topology_optimization")))
    assert err.value.kind == "solver"


@pytest.mark.parametrize("volfrac", ["1e-300", "5e-7"])
def test_volume_fraction_below_the_area_floor_is_an_audit_finding(volfrac):
    # bars cannot be thinner than the area floor: below it the optimizer
    # starts from a mechanism (1e-300), or ends above its target (5e-7)
    with pytest.raises(PerceptionFailure) as err:
        orchestrate(*_topopt_context("volfrac: 0.5", f"volfrac: {volfrac}"))
    assert _pairs(err.value.report.findings) == {("mode-params", "analysis")}
    with pytest.raises(SolverError, match="volume fraction") as err:
        optimize_topology(ground_structure(volfrac=float(volfrac), iters=1))
    assert err.value.kind == "solver"


def test_volume_fraction_at_the_area_floor_verifies(tmp_path):
    case_dir = tmp_path / "topopt_floor"
    shutil.copytree(SUITE / "topopt_ground", case_dir)
    context = case_dir / "context.txt"
    context.write_text(context.read_text(encoding="utf-8").replace("volfrac: 0.5",
                                                                   "volfrac: 1e-6"),
                       encoding="utf-8")
    report = run_case(load_case(case_dir), RunConfig(workspace_root=tmp_path / "runs"))
    assert report.error is None and report.metrics.execution_success
    assert report.highlights["final_volume_fraction"] <= AREA_FLOOR_RATIO * (1 + 1e-9)
