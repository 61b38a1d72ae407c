"""End-to-end case runner, perception metrics, suite aggregation, reporting.

A case directory holds ``case.json`` (id, file names, expected mode) next to
the drawing document, the context text and optionally the reference model
used for evaluation.

``run_case`` runs each case with the cyclic garbage collector paused, when
it is enabled, since a case's records hold no reference cycles and die
together when the case ends. The switch is process-wide, so cases run on
several threads at once may see it enabled again before they finish,
which costs time, not results.
"""

from __future__ import annotations

import gc
import json
import math
import os
import time
from collections import Counter
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .failures import FAILURES
from .ir import (ANALYSIS_MODES, IRModel, SchemaParseError, _Defect, _endpoints, _Field,
                 _nullable, _one_of, _read_json, _record, _rows, _text, bounding_box,
                 deserialize, pairs_within, unit_box)
from .memory import ExperienceBuffer
from .perception import PerceptionError, PerceptionFailure, orchestrate
from .sandbox import Limits, _is_file_name
from .solver import ANALYSES
from .synthesis import SynthesisError, SynthesisTrace, make_generator, synthesize
from .validation import check_l1

DEFAULT_MATCH_TOLERANCE = 0.02   # of the reference bounding-box diagonal
# the scores of a model against its reference, each None without one
SCORES = ("node_accuracy", "connectivity_f1", "bc_detection", "overall")
WORKSPACE_ROOT_ENV = "VFEA_WORKSPACE_ROOT"


class CaseLoadError(Exception):
    stage, kind = "load", "case"


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


@dataclass(frozen=True)
class CaseFailure:
    """The row of ``failures.FAILURES`` a case failed at, and its subject
    when there is one: the drawing defect's path, the first open audit
    finding's subject, or the script line (``line N``) of the last attempt."""
    stage: str
    kind: str
    subject: str | None = None


@dataclass
class CaseReport:
    case_id: str
    metrics: Metrics
    trace: TraceSummary
    highlights: dict[str, float] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)
    error: str | None = None  # the text of the failure's row
    failure: CaseFailure | None = None


@dataclass
class SuiteSummary:
    n_cases: int
    schema_validity: float
    node_accuracy: float | None  # the scores, each None when no case has a reference
    connectivity_f1: float | None
    bc_detection: float | None
    overall: float | None
    execution_success_rate: float
    fallback_activation_rate: float
    retry_histogram: dict[int, int]
    reports: list[CaseReport]
    failure_counts: dict[str, int] = field(default_factory=dict)  # by "stage/kind"


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


def check_case_id(case_id: str, source: str) -> str:
    """``case_id``, read from ``source``, if it can name the case's
    workspaces and report files; else CaseLoadError naming ``source``."""
    if not _is_file_name(case_id):
        raise CaseLoadError(f"{source}: case id {case_id!r} cannot name a file")
    return case_id


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
    spec = CaseSpec(case_id=check_case_id(doc.id, f"case manifest {manifest}"),
                    drawing_path=case_dir / doc.drawing,
                    context_path=case_dir / doc.context,
                    truth_ir_path=case_dir / doc.truth_ir if doc.truth_ir else None,
                    expected_mode=doc.expected_mode)
    for p in (spec.drawing_path, spec.context_path, spec.truth_ir_path):
        if p is not None and not p.exists():
            raise CaseLoadError(f"case file does not resolve: {p}")
    return spec


def load_suite(suite_dir: str | Path) -> list[CaseSpec]:
    """The cases of every ``*/case.json`` under the suite directory, ids unique."""
    suite_dir = Path(suite_dir)
    manifests = sorted(suite_dir.glob("*/case.json"))
    if not manifests:
        raise CaseLoadError(f"no cases found under {suite_dir}")
    cases, first = [load_case(m.parent) for m in manifests], {}
    for manifest, case in zip(manifests, cases):
        if (other := first.setdefault(case.case_id, manifest)) is not manifest:
            raise CaseLoadError(f"case manifests {other} and {manifest} "
                                f"share the case id {case.case_id!r}")
    return cases


def _ranks(ids: list[int]) -> np.ndarray:
    """The rank of each of the distinct ``ids`` in ascending order."""
    rank = np.empty(len(ids), np.intp)
    rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return rank


def _common_pairs(left: np.ndarray, right: np.ndarray, n: int) -> int:
    """How many unordered pairs the two (m, 2) arrays of rows below ``n``
    have in common, counted as multisets."""
    def counted(pairs: np.ndarray):
        return np.unique(pairs.min(axis=1) * n + pairs.max(axis=1), return_counts=True)
    (lkeys, lcounts), (rkeys, rcounts) = counted(left), counted(right)
    _, a, b = np.intersect1d(lkeys, rkeys, assume_unique=True, return_indices=True)
    return int(np.minimum(lcounts[a], rcounts[b]).sum())


def evaluate_ir(predicted: IRModel, truth: IRModel, tol: float = DEFAULT_MATCH_TOLERANCE,
                schema_valid: bool | None = None) -> Metrics:
    """Perception metrics against a reference model. ``schema_valid`` is
    whether ``predicted`` passes the L1 audit, checked here when not given.

    Nodes match greedily, nearest pair first, by a finite distance within
    ``tol`` of the reference bounding-box diagonal, so a node with a
    non-finite coordinate matches nothing (and, like any non-finite point,
    is left out of that box); connectivity is F1 over element
    node pairs mapped through that matching, where a pair with an end that
    is unmatched or names no node agrees with no pair; the composite overall
    score is the mean of node accuracy and connectivity F1.
    """
    if schema_valid is None:
        schema_valid = not check_l1(predicted)
    pred, ref = predicted.node_positions(), truth.node_positions()
    if predicted.coordinate_mode != truth.coordinate_mode:
        pred, ref = unit_box(pred), unit_box(ref)
    pred_ids, ref_ids = list(pred), list(ref)
    pred_xy = np.array(list(pred.values()), float).reshape(-1, 2)
    ref_xy = np.array(list(ref.values()), float).reshape(-1, 2)

    box = bounding_box(ref.values())
    diagonal = math.hypot(box[2] - box[0], box[3] - box[1]) if box else 0.0
    threshold = tol * diagonal if diagonal > 0 else tol

    # candidate pairs in (distance, predicted id, reference id) order; ids
    # compare through their ranks, which are plain array indices
    i, j = pairs_within(pred_xy, threshold, ref_xy)
    dist = np.fromiter(map(math.dist, pred_xy.take(i, axis=0).tolist(),
                           ref_xy.take(j, axis=0).tolist()), float, i.size)
    order = np.lexsort((_ranks(ref_ids)[j], _ranks(pred_ids)[i], dist))
    # predicted row -> matched reference row or -1; the extra last entry
    # answers row -1, an endpoint that names no predicted node
    match = [-1] * (len(pred_ids) + 1)
    taken = [False] * len(ref_ids)
    for a, b in zip(i[order].tolist(), j[order].tolist()):
        if match[a] < 0 and not taken[b]:
            match[a] = b
            taken[b] = True
    match = np.array(match)
    matched = np.flatnonzero(match[:-1] >= 0)

    denom = max(len(pred), len(ref))
    node_accuracy = (len(matched) / denom) if denom else 1.0

    # Element pairs compare as unordered pairs of reference rows. Only a
    # predicted element with both ends matched and a reference element with
    # both ends at reference nodes can agree, but every element counts.
    pred_ends = match[_rows(pred_ids, _endpoints(predicted.elements), missing=-1)].reshape(-1, 2)
    truth_ends = _rows(ref_ids, _endpoints(truth.elements), missing=-1).reshape(-1, 2)
    tp = _common_pairs(pred_ends[(pred_ends >= 0).all(axis=1)],
                       truth_ends[(truth_ends >= 0).all(axis=1)], len(ref_ids))
    if not len(pred_ends) and not len(truth_ends):
        connectivity_f1 = 1.0
    elif tp == 0:
        connectivity_f1 = 0.0
    else:
        precision = tp / len(pred_ends)
        recall = tp / len(truth_ends)
        connectivity_f1 = 2 * precision * recall / (precision + recall)

    truth_bcs = {b.node_id: b.constrained_dofs for b in truth.boundary_conditions}
    pred_bcs = {b.node_id: b.constrained_dofs for b in predicted.boundary_conditions}
    if truth_bcs:
        pred_row = np.full(len(ref_ids) + 1, -1)  # as in match, for row -1
        pred_row[match[matched]] = matched
        rows = pred_row[_rows(ref_ids, truth_bcs, missing=-1)].tolist()
        hits = sum(1 for (tid, dofs), a in zip(truth_bcs.items(), rows)
                   if a >= 0 and pred_bcs.get(pred_ids[a]) == dofs)
        bc_detection = hits / len(truth_bcs)
    else:
        bc_detection = 1.0

    overall = (node_accuracy + connectivity_f1) / 2.0
    return Metrics(schema_valid=schema_valid, node_accuracy=node_accuracy,
                   connectivity_f1=connectivity_f1, bc_detection=bc_detection,
                   overall=overall)


def run_case(case: CaseSpec, config: RunConfig,
             buffer: ExperienceBuffer | None = None) -> CaseReport:
    """Perception, synthesis and evaluation for one case; failures at any
    stage are captured in the report rather than raised.

    The cyclic garbage collector is paused for the call when it is enabled,
    and enabled again on the way out, raising or not. A case's records live
    until the case ends and hold no reference cycles, so collections during
    the case would scan them and find nothing to free.
    """
    if not gc.isenabled():
        return _run_case(case, config, buffer)
    gc.disable()
    try:
        return _run_case(case, config, buffer)
    finally:
        gc.enable()


def _run_case(case: CaseSpec, config: RunConfig, buffer: ExperienceBuffer | None) -> CaseReport:
    try:
        drawing_doc = case.drawing_path.read_text(encoding="utf-8")
        context_text = case.context_path.read_text(encoding="utf-8")
        truth = (deserialize(case.truth_ir_path.read_text(encoding="utf-8"))
                 if case.truth_ir_path else None)
    except (OSError, UnicodeDecodeError) as exc:
        raise CaseLoadError(f"cannot read case {case.case_id}: {exc}") from None
    except SchemaParseError as exc:
        raise CaseLoadError(f"case {case.case_id}: reference model {case.truth_ir_path}: "
                            f"{exc}") from None

    buffer = buffer if buffer is not None else ExperienceBuffer(config.memory_path)
    unscored = dict.fromkeys(SCORES, 0.0 if truth else None)  # scored after perception
    report = CaseReport(case_id=case.case_id, metrics=Metrics(False, **unscored),
                        trace=TraceSummary())

    t0 = time.monotonic()
    try:
        model = orchestrate(drawing_doc, context_text)
    except PerceptionError as exc:  # no model was built
        return _failed(report, exc, exc)
    except PerceptionFailure as exc:  # the last audit: an L1 finding stops L2-L4
        report.metrics = replace(report.metrics, schema_valid=all(
            f.level != "L1" for f in exc.report.findings))
        return _failed(report, exc, exc)
    # orchestrate returns only a model whose audit, L1 included, is clean
    report.metrics = replace(report.metrics, schema_valid=True)
    if case.expected_mode is not None and model.analysis.mode != case.expected_mode:
        return _failed(report, CaseFailure("perception", "mode"), model.analysis.mode,
                       case.expected_mode)
    report.timings["perception_s"] = time.monotonic() - t0

    if truth is not None:
        report.metrics = evaluate_ir(model, truth, schema_valid=True)

    t1 = time.monotonic()
    generator = make_generator(config.generator_spec)
    try:
        _, results, trace = synthesize(
            model, config.max_retries, buffer, generator,
            config.resolved_workspace_root(), fallback_enabled=config.fallback_enabled,
            limits=config.limits, task_id=case.case_id, execution_mode=config.execution_mode)
    except SynthesisError as exc:
        report.trace = _summarize_trace(exc.trace, verified=False)
        return _failed(report, exc, exc, len(exc.trace.attempts))
    report.timings["synthesis_s"] = time.monotonic() - t1

    report.trace = _summarize_trace(trace, verified=True)
    report.metrics = replace(report.metrics, execution_success=True)
    report.highlights = ANALYSES[model.analysis.mode].highlights(results)
    report.timings["total_s"] = time.monotonic() - t0
    return report


def _failed(report: CaseReport, failure, *args) -> CaseReport:
    """The report of a case that failed at ``failure``'s (stage, kind) and
    subject: its error is the row's text formatted with ``args``."""
    report.failure = CaseFailure(failure.stage, failure.kind, failure.subject)
    report.error = FAILURES[failure.stage, failure.kind].text.format(*args)
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


def _mean(values: list[float]) -> float | None:
    """The values added left to right in plain doubles (``sum`` of floats
    is compensated from Python 3.12 on), divided by their count; None for no values."""
    if not values:
        return None
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
    scores = {name: _mean([v for r in reports if (v := getattr(r.metrics, name)) is not None])
              for name in SCORES}
    return SuiteSummary(
        n_cases=len(reports),
        schema_validity=_mean([1.0 if r.metrics.schema_valid else 0.0 for r in reports]),
        **scores,
        execution_success_rate=_mean([1.0 if r.metrics.execution_success else 0.0
                                      for r in reports]),
        fallback_activation_rate=_mean([1.0 if r.trace.fallback_used else 0.0
                                        for r in reports]),
        retry_histogram=dict(sorted(histogram.items())),
        reports=reports,
        failure_counts=dict(sorted(Counter(f"{r.failure.stage}/{r.failure.kind}"
                                           for r in reports if r.failure).items())),
    )


def _fmt(value: float | None) -> str:
    return "—" if value is None else f"{value:.3f}"


def _case_to_doc(r: CaseReport) -> dict:
    return {"case_id": r.case_id, "metrics": asdict(r.metrics), "trace": asdict(r.trace),
            "highlights": r.highlights, "error": r.error,
            "failure": r.failure and asdict(r.failure)}


def emit_report(obj: CaseReport | SuiteSummary, fmt: str = "markdown") -> str:
    """Deterministic report rendering; timings are intentionally excluded so
    identical runs produce identical bytes."""
    if fmt == "structured_text":
        if isinstance(obj, CaseReport):
            doc = _case_to_doc(obj)
        else:
            doc = {f.name: getattr(obj, f.name) for f in fields(obj) if f.name != "reports"}
            doc["retry_histogram"] = {str(k): v for k, v in obj.retry_histogram.items()}
            doc["cases"] = [_case_to_doc(r) for r in obj.reports]
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
    lines.append(f"| vfea | {obj.schema_validity:.3f} | {_fmt(obj.node_accuracy)} | "
                 f"{_fmt(obj.connectivity_f1)} | {_fmt(obj.bc_detection)} | {_fmt(obj.overall)} |")
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
