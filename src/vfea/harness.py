"""End-to-end case runner, perception metrics, suite aggregation, reporting.

A case directory holds ``case.json`` (id, file names, expected mode) next to
the drawing document, the context text and optionally the reference model
used for evaluation.
"""

from __future__ import annotations

import json
import math
import os
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

from .ir import (ANALYSIS_MODES, IRModel, _Defect, _Field, _nullable, _one_of,
                 _read_json, _record, _text, bounding_box, deserialize, pairs_within,
                 unit_box)
from .memory import ExperienceBuffer
from .perception import (DegenerateElementError, DrawingParseError,
                         PerceptionFailure, ScaleConflictError,
                         SemanticsError, orchestrate)
from .sandbox import Limits
from .solver import ModalResult, StaticResult, TopoResult
from .synthesis import (FallbackFailureError, SynthesisExhaustedError,
                        SynthesisTrace, make_generator, synthesize)
from .validation import check_l1

DEFAULT_MATCH_TOLERANCE = 0.02   # of the reference bounding-box diagonal
WORKSPACE_ROOT_ENV = "VFEA_WORKSPACE_ROOT"


class CaseLoadError(Exception):
    pass


@dataclass(frozen=True)
class CaseSpec:
    case_id: str
    drawing_path: Path
    context_path: Path
    truth_ir_path: Path | None
    expected_mode: str | None  # the analysis mode perception must find; None expects none


@dataclass(frozen=True)
class Metrics:
    schema_valid: bool
    node_accuracy: float | None
    connectivity_f1: float | None
    bc_detection: float | None
    overall: float | None
    execution_success: bool = False


@dataclass
class RunConfig:
    max_retries: int = 3
    generator_spec: str = "perfect"
    fallback_enabled: bool = True
    memory_path: Path | None = None
    workspace_root: Path | None = None
    out_dir: Path | None = None
    execution_mode: str = "inprocess"
    limits: Limits = field(default_factory=Limits)

    def resolved_workspace_root(self) -> Path:
        if self.workspace_root is not None:
            return Path(self.workspace_root)
        env = os.environ.get(WORKSPACE_ROOT_ENV)
        if env:
            return Path(env)
        base = Path(self.out_dir) if self.out_dir is not None else Path.cwd() / "vfea-runs"
        return base / "workspaces"


@dataclass
class TraceSummary:
    attempts: int = 0
    retry_count: int | None = None
    fallback_used: bool = False
    lessons: tuple[str, ...] = ()


@dataclass
class CaseReport:
    case_id: str
    metrics: Metrics
    trace: TraceSummary
    highlights: dict[str, float] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)
    error: str | None = None


@dataclass
class SuiteSummary:
    n_cases: int
    schema_validity: float
    node_accuracy: float
    connectivity_f1: float
    bc_detection: float
    overall: float
    execution_success_rate: float
    fallback_activation_rate: float
    retry_histogram: dict[int, int]
    reports: list[CaseReport]


class _Manifest(NamedTuple):
    """``case.json``: the case id, and file names relative to its directory."""
    id: str
    drawing: str
    context: str
    truth_ir: str | None = None
    expected_mode: str = "static"


_read_manifest = _record({_Manifest: (
    _Field("id", "id", _text), _Field("drawing", "drawing", _text),
    _Field("context", "context", _text),
    _Field("truth_ir", "truth_ir", _nullable(_text), required=False),
    _Field("expected_mode", "expected_mode", _one_of(ANALYSIS_MODES), required=False))},
    _Manifest)


def load_case(case_dir: str | Path) -> CaseSpec:
    """Read a case directory's ``case.json``; a manifest that is unreadable,
    malformed or names a missing file raises CaseLoadError naming the path."""
    case_dir = Path(case_dir)
    manifest = case_dir / "case.json"
    try:
        doc = _read_json(_read_manifest, manifest.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise CaseLoadError(f"cannot load case manifest {manifest}: {exc}") from None
    except _Defect as defect:
        raise CaseLoadError(f"case manifest {manifest}: {defect.path}: {defect.reason}") from None
    spec = CaseSpec(case_id=doc.id, drawing_path=case_dir / doc.drawing,
                    context_path=case_dir / doc.context,
                    truth_ir_path=case_dir / doc.truth_ir if doc.truth_ir else None,
                    expected_mode=doc.expected_mode)
    for p in (spec.drawing_path, spec.context_path, spec.truth_ir_path):
        if p is not None and not p.exists():
            raise CaseLoadError(f"case file does not resolve: {p}")
    return spec


def load_suite(suite_dir: str | Path) -> list[CaseSpec]:
    suite_dir = Path(suite_dir)
    manifests = sorted(suite_dir.glob("*/case.json"))
    if not manifests:
        raise CaseLoadError(f"no cases found under {suite_dir}")
    return [load_case(m.parent) for m in manifests]


def evaluate_ir(predicted: IRModel, truth: IRModel,
                tol: float = DEFAULT_MATCH_TOLERANCE) -> Metrics:
    """Perception metrics against a reference model.

    Nodes match greedily, nearest pair first, by a finite distance within
    ``tol`` of the reference bounding-box diagonal, so a node with a
    non-finite coordinate matches nothing (and, like any non-finite point,
    is left out of that box); connectivity is F1 over element
    node pairs mapped through that matching; the composite overall score is
    the mean of node accuracy and connectivity F1.
    """
    schema_valid = not check_l1(predicted)
    align = predicted.coordinate_mode != truth.coordinate_mode
    pred, ref = predicted.node_positions(), truth.node_positions()
    if align:
        pred, ref = unit_box(pred), unit_box(ref)

    box = bounding_box(ref.values())
    diagonal = math.hypot(box[2] - box[0], box[3] - box[1]) if box else 0.0
    threshold = tol * diagonal if diagonal > 0 else tol

    pred_ids, ref_ids = list(pred), list(ref)
    pred_xy, ref_xy = list(pred.values()), list(ref.values())
    i, j = pairs_within(pred_xy, threshold, ref_xy)
    pairs = sorted((math.dist(pred_xy[a], ref_xy[b]), pred_ids[a], ref_ids[b])
                   for a, b in zip(i.tolist(), j.tolist()))
    pred_to_truth: dict[int, int] = {}
    matched_truth: set[int] = set()
    for _, pid, tid in pairs:
        if pid in pred_to_truth or tid in matched_truth:
            continue
        pred_to_truth[pid] = tid
        matched_truth.add(tid)

    denom = max(len(pred), len(ref))
    node_accuracy = (len(pred_to_truth) / denom) if denom else 1.0

    def pair_multiset(model: IRModel, mapping: dict[int, int] | None) -> list[tuple[int, int]]:
        out = []
        for e in model.elements:
            a, b = e.node_ids
            if mapping is not None:
                if a not in mapping or b not in mapping:
                    out.append((-e.id, -e.id))  # unmatched endpoints: never a true positive
                    continue
                a, b = mapping[a], mapping[b]
            out.append((min(a, b), max(a, b)))
        return out

    pred_pairs = pair_multiset(predicted, pred_to_truth)
    truth_pairs = pair_multiset(truth, None)
    tp = sum((Counter(pred_pairs) & Counter(truth_pairs)).values())
    if not pred_pairs and not truth_pairs:
        connectivity_f1 = 1.0
    elif tp == 0:
        connectivity_f1 = 0.0
    else:
        precision = tp / len(pred_pairs)
        recall = tp / len(truth_pairs)
        connectivity_f1 = 2 * precision * recall / (precision + recall)

    truth_bcs = {b.node_id: b.constrained_dofs for b in truth.boundary_conditions}
    pred_bcs = {b.node_id: b.constrained_dofs for b in predicted.boundary_conditions}
    truth_to_pred = {t: p for p, t in pred_to_truth.items()}
    if truth_bcs:
        hits = sum(
            1 for tid, dofs in truth_bcs.items()
            if tid in truth_to_pred and pred_bcs.get(truth_to_pred[tid]) == dofs
        )
        bc_detection = hits / len(truth_bcs)
    else:
        bc_detection = 1.0

    overall = (node_accuracy + connectivity_f1) / 2.0
    return Metrics(schema_valid=schema_valid, node_accuracy=node_accuracy,
                   connectivity_f1=connectivity_f1, bc_detection=bc_detection,
                   overall=overall)


def _highlights(results) -> dict[str, float]:
    if isinstance(results, StaticResult):
        max_disp = max((math.hypot(v[0], v[1]) for v in results.displacements.values()),
                       default=0.0)
        out = {"max_displacement_m": max_disp}
        if results.axial_stress:
            out["max_abs_axial_stress_pa"] = max(abs(v) for v in results.axial_stress.values())
        return out
    if isinstance(results, ModalResult):
        return {"first_frequency_hz": results.frequencies_hz[0]}
    if isinstance(results, TopoResult):
        return {"final_compliance_j": results.compliance_history[-1],
                "final_volume_fraction": results.final_volume_fraction}
    return {}


def run_case(case: CaseSpec, config: RunConfig,
             buffer: ExperienceBuffer | None = None) -> CaseReport:
    """Perception, synthesis and evaluation for one case; failures at any
    stage are captured in the report rather than raised."""
    try:
        drawing_doc = case.drawing_path.read_text(encoding="utf-8")
        context_text = case.context_path.read_text(encoding="utf-8")
        truth = (deserialize(case.truth_ir_path.read_text(encoding="utf-8"))
                 if case.truth_ir_path else None)
    except (OSError, UnicodeDecodeError) as exc:
        raise CaseLoadError(f"cannot read case {case.case_id}: {exc}") from None

    buffer = buffer if buffer is not None else ExperienceBuffer(config.memory_path)
    empty_metrics = Metrics(schema_valid=False, node_accuracy=0.0, connectivity_f1=0.0,
                            bc_detection=0.0, overall=0.0) if truth else \
        Metrics(schema_valid=False, node_accuracy=None, connectivity_f1=None,
                bc_detection=None, overall=None)
    report = CaseReport(case_id=case.case_id, metrics=empty_metrics, trace=TraceSummary())

    t0 = time.monotonic()
    try:
        model = orchestrate(drawing_doc, context_text)
    except PerceptionFailure as exc:
        report.error = f"perception: {exc}"
        return report
    except (DrawingParseError, ScaleConflictError, SemanticsError,
            DegenerateElementError) as exc:
        report.error = f"perception: {type(exc).__name__}: {exc}"
        return report
    if case.expected_mode is not None and model.analysis.mode != case.expected_mode:
        report.error = (f"perception: perceived analysis mode {model.analysis.mode!r}, "
                        f"expected {case.expected_mode!r}")
        return report
    report.timings["perception_s"] = time.monotonic() - t0

    if truth is not None:
        report.metrics = evaluate_ir(model, truth)
    else:
        report.metrics = replace(report.metrics, schema_valid=not check_l1(model))

    t1 = time.monotonic()
    generator = make_generator(config.generator_spec)
    try:
        _, results, trace = synthesize(
            model, config.max_retries, buffer, generator,
            config.resolved_workspace_root(), fallback_enabled=config.fallback_enabled,
            limits=config.limits, task_id=case.case_id, execution_mode=config.execution_mode)
    except SynthesisExhaustedError as exc:
        report.error = f"synthesis: retry budget exhausted ({len(exc.trace.attempts)} attempts)"
        report.trace = _summarize_trace(exc.trace, verified=False)
        return report
    except FallbackFailureError as exc:
        report.error = f"synthesis: fallback failure: {exc}"
        report.trace = _summarize_trace(exc.trace, verified=False)
        return report
    report.timings["synthesis_s"] = time.monotonic() - t1

    report.trace = _summarize_trace(trace, verified=True)
    report.metrics = replace(report.metrics, execution_success=True)
    report.highlights = _highlights(results)
    report.timings["total_s"] = time.monotonic() - t0
    return report


def _summarize_trace(trace: SynthesisTrace, verified: bool) -> TraceSummary:
    """``retry_count`` is the k of the attempt whose results were verified:
    the last one when synthesis returned, none when it was exhausted."""
    return TraceSummary(attempts=len(trace.attempts),
                        retry_count=trace.attempts[-1].k if verified else None,
                        fallback_used=trace.fallback_used,
                        lessons=tuple(trace.lessons_accumulated))


def run_suite(cases: list[CaseSpec], config: RunConfig) -> SuiteSummary:
    """Run the cases one at a time, in case-id order, sharing one buffer."""
    buffer = ExperienceBuffer(config.memory_path)
    return aggregate([run_case(c, config, buffer)
                      for c in sorted(cases, key=lambda c: c.case_id)])


def _mean(values: list[float]) -> float:
    """The values added left to right in plain doubles (``sum`` of floats
    is compensated from Python 3.12 on), divided by their count."""
    if not values:
        return 0.0
    total = 0.0
    for v in values:
        total += v
    return total / len(values)


def aggregate(reports: list[CaseReport]) -> SuiteSummary:
    if not reports:
        raise ValueError("cannot aggregate zero reports")
    histogram: dict[int, int] = {}
    for r in reports:
        if r.trace.retry_count is not None:
            histogram[r.trace.retry_count] = histogram.get(r.trace.retry_count, 0) + 1
    return SuiteSummary(
        n_cases=len(reports),
        schema_validity=_mean([1.0 if r.metrics.schema_valid else 0.0 for r in reports]),
        node_accuracy=_mean([r.metrics.node_accuracy for r in reports
                             if r.metrics.node_accuracy is not None]),
        connectivity_f1=_mean([r.metrics.connectivity_f1 for r in reports
                               if r.metrics.connectivity_f1 is not None]),
        bc_detection=_mean([r.metrics.bc_detection for r in reports
                            if r.metrics.bc_detection is not None]),
        overall=_mean([r.metrics.overall for r in reports if r.metrics.overall is not None]),
        execution_success_rate=_mean([1.0 if r.metrics.execution_success else 0.0
                                      for r in reports]),
        fallback_activation_rate=_mean([1.0 if r.trace.fallback_used else 0.0
                                        for r in reports]),
        retry_histogram=dict(sorted(histogram.items())),
        reports=reports,
    )


def _fmt(value: float | None) -> str:
    return "—" if value is None else f"{value:.3f}"


def _case_to_doc(r: CaseReport) -> dict:
    return {
        "case_id": r.case_id,
        "metrics": {
            "schema_valid": r.metrics.schema_valid,
            "node_accuracy": r.metrics.node_accuracy,
            "connectivity_f1": r.metrics.connectivity_f1,
            "bc_detection": r.metrics.bc_detection,
            "overall": r.metrics.overall,
            "execution_success": r.metrics.execution_success,
        },
        "trace": {
            "attempts": r.trace.attempts,
            "retry_count": r.trace.retry_count,
            "fallback_used": r.trace.fallback_used,
            "lessons": list(r.trace.lessons),
        },
        "highlights": dict(sorted(r.highlights.items())),
        "error": r.error,
    }


def emit_report(obj: CaseReport | SuiteSummary, fmt: str = "markdown") -> str:
    """Deterministic report rendering; timings are intentionally excluded so
    identical runs produce identical bytes."""
    if fmt == "structured_text":
        if isinstance(obj, CaseReport):
            doc = _case_to_doc(obj)
        else:
            doc = {
                "n_cases": obj.n_cases,
                "schema_validity": obj.schema_validity,
                "node_accuracy": obj.node_accuracy,
                "connectivity_f1": obj.connectivity_f1,
                "bc_detection": obj.bc_detection,
                "overall": obj.overall,
                "execution_success_rate": obj.execution_success_rate,
                "fallback_activation_rate": obj.fallback_activation_rate,
                "retry_histogram": {str(k): v for k, v in obj.retry_histogram.items()},
                "cases": [_case_to_doc(r) for r in obj.reports],
            }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if fmt != "markdown":
        raise ValueError(f"unknown report format {fmt!r}")

    if isinstance(obj, CaseReport):
        lines = [f"# Case {obj.case_id}", ""]
        m = obj.metrics
        lines.append("| Schema Valid. | Node Acc. | Conn. F1 | BC Det. | Overall |")
        lines.append("|---|---|---|---|---|")
        lines.append(f"| {'yes' if m.schema_valid else 'no'} | {_fmt(m.node_accuracy)} | "
                     f"{_fmt(m.connectivity_f1)} | {_fmt(m.bc_detection)} | "
                     f"{_fmt(m.overall)} |")
        lines.append("")
        lines.append(f"- execution success: {'yes' if m.execution_success else 'no'}")
        retry = obj.trace.retry_count if obj.trace.retry_count is not None else "—"
        lines.append(f"- attempts: {obj.trace.attempts}; retries: {retry}; "
                     f"fallback: {'yes' if obj.trace.fallback_used else 'no'}")
        for key in sorted(obj.highlights):
            lines.append(f"- {key}: {obj.highlights[key]:.6g}")
        if obj.error:
            lines.append(f"- error: {obj.error}")
        return "\n".join(lines) + "\n"

    lines = ["# Suite summary", ""]
    lines.append("| Model | Schema Valid. | Node Acc. | Conn. F1 | BC Det. | Overall |")
    lines.append("|---|---|---|---|---|---|")
    lines.append(f"| vfea | {obj.schema_validity:.3f} | {obj.node_accuracy:.3f} | "
                 f"{obj.connectivity_f1:.3f} | {obj.bc_detection:.3f} | {obj.overall:.3f} |")
    lines.append("")
    lines.append(f"- cases: {obj.n_cases}")
    lines.append(f"- execution success rate: {obj.execution_success_rate:.3f}")
    lines.append(f"- fallback activation rate: {obj.fallback_activation_rate:.3f}")
    hist = ", ".join(f"k={k}: {v}" for k, v in obj.retry_histogram.items()) or "—"
    lines.append(f"- retry histogram: {hist}")
    lines.append("")
    lines.append("| Case | Schema | Node | Conn | BC | Overall | Exec | Retries | Fallback |")
    lines.append("|---|---|---|---|---|---|---|---|---|")
    for r in obj.reports:
        m = r.metrics
        retry = r.trace.retry_count if r.trace.retry_count is not None else "—"
        lines.append(
            f"| {r.case_id} | {'yes' if m.schema_valid else 'no'} | {_fmt(m.node_accuracy)} | "
            f"{_fmt(m.connectivity_f1)} | {_fmt(m.bc_detection)} | {_fmt(m.overall)} | "
            f"{'yes' if m.execution_success else 'no'} | {retry} | "
            f"{'yes' if r.trace.fallback_used else 'no'} |")
    return "\n".join(lines) + "\n"
