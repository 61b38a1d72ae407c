"""Drawing-side pipeline: parse the structured drawing document, infer scale
and topology, attach physical semantics from the context text, and drive the
audit-gated refinement loop over a belief state.

Raster perception is out of scope; the drawing document is the structured
stand-in, and the per-turn reasoning step is a pluggable hook so the loop
itself stays deterministic and testable.
"""

from __future__ import annotations

import itertools
import math
import statistics
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .ir import (ANALYSIS_MODES, COLLECTIONS, KINDS, MODES, AnalysisSpec, BoundaryCondition,
                 Element, IRModel, Load, Material, Node, Section, _Defect, _Field, _array, _finite,
                 _distances, _int, _nullable, _one_of, _read_json, _record, _text,
                 canonicalize, pairs_within, unit_box)
from .simscript import _code_lines
from .validation import (ValidationReport, accept_update, audit,
                         connected_components)

STROKE_CLASSES = ("structural", "dimension", "annotation")
GLYPH_KINDS = ("pin", "roller_x", "roller_y", "fixed")

GLYPH_DOFS = {
    "pin": frozenset({"ux", "uy"}),
    "roller_x": frozenset({"ux"}),
    "roller_y": frozenset({"uy"}),
    "fixed": frozenset({"ux", "uy", "rz"}),
}

FORCE_UNITS = {"n": 1.0, "kn": 1e3, "mn": 1e6}

DEFAULT_SNAP_TOLERANCE = 3.0   # pixels
DEFAULT_SCALE_CV_TOL = 0.02

DEFAULT_MATERIAL = Material(id=1, youngs_modulus=210e9, poisson_ratio=0.3, density=7850.0)
DEFAULT_SECTION = Section(id=1, material_id=1, area=1e-2, moment_of_inertia=1e-5)


class PerceptionError(Exception):
    """The drawing or the context cannot be read into a model. ``kind`` is
    its perception row of ``failures.FAILURES``: a malformed ``drawing``
    document (``subject`` is the defect's path), a ``scale`` conflict among
    the dimension annotations, a ``degenerate`` structural segment, or
    ``semantics`` that cannot be attached."""
    stage = "perception"

    def __init__(self, kind: str, message: str, subject: str | None = None):
        super().__init__(message)
        self.kind, self.subject = kind, subject


class PerceptionFailure(Exception):
    """No turn gave a model the audit passes: the last audit report, the
    turns that ran, and the subject of its first open finding."""
    stage, kind = "perception", "audit"

    def __init__(self, report: ValidationReport, turns: int):
        self.report = report
        self.turns = turns
        self.subject = (report.findings[0].subject or None) if report.findings else None
        codes = [f.code for f in report.findings]
        super().__init__(f"no audited model after {turns} turn{'s' * (turns != 1)}; "
                         f"open findings: {codes}")


Point = tuple[float, float]


@dataclass(frozen=True)
class Segment:
    p1: Point
    p2: Point
    stroke_class: str


@dataclass(frozen=True)
class DrawingLabel:
    anchor: Point
    text: str


@dataclass(frozen=True)
class SupportGlyph:
    anchor: Point
    kind: str


@dataclass(frozen=True)
class LoadArrow:
    anchor: Point
    direction: Point
    magnitude_label: str | None = None


@dataclass(frozen=True)
class DimensionAnnotation:
    segment_index: int
    value: float


@dataclass(frozen=True)
class PrimitiveDrawing:
    segments: tuple[Segment, ...] = ()
    labels: tuple[DrawingLabel, ...] = ()
    support_glyphs: tuple[SupportGlyph, ...] = ()
    load_arrows: tuple[LoadArrow, ...] = ()
    dimension_annotations: tuple[DimensionAnnotation, ...] = ()


@dataclass(frozen=True)
class ScaleResolution:
    mode: str  # metric | normalized
    meters_per_pixel: float | None
    consistency: float


@dataclass(frozen=True)
class BeliefState:
    draft: IRModel | None
    pinned_constraints: tuple[str, ...]
    findings: ValidationReport | None
    turn: int


ReasoningHook = Callable[[PrimitiveDrawing, str, ScaleResolution, BeliefState], IRModel]
JustificationHook = Callable[[ValidationReport, IRModel | None, IRModel], "str | None"]


@dataclass(frozen=True)
class PerceptionConfig:
    max_turns: int = 3
    reasoning_hook: ReasoningHook | None = None
    justification_hook: JustificationHook | None = None


_point = _array(_finite, 2, "coordinates")


def _direction(value) -> Point:
    x, y = _point(value)
    norm = math.hypot(x, y)
    if norm == 0.0:
        raise _Defect("zero vector")
    if norm == math.inf:  # finite components whose norm overflows
        scale = max(abs(x), abs(y))
        x, y = x / scale, y / scale
        norm = math.hypot(x, y)
    return (x / norm, y / norm)


def _positive(value) -> float:
    value = _finite(value)
    if not value > 0:
        raise _Defect(f"expected a positive value, got {value}")
    return value


# Every record kind of the drawing document (docs/drawing-format.md), each
# field in the documented key order; all arrays of the document are optional.
_DRAWING: dict[type, tuple[_Field, ...]] = {
    Segment: (_Field("p1", "p1", _point), _Field("p2", "p2", _point),
              _Field("class", "stroke_class", _one_of(STROKE_CLASSES))),
    DrawingLabel: (_Field("anchor", "anchor", _point), _Field("text", "text", _text)),
    SupportGlyph: (_Field("anchor", "anchor", _point),
                   _Field("kind", "kind", _one_of(GLYPH_KINDS))),
    LoadArrow: (_Field("anchor", "anchor", _point), _Field("direction", "direction", _direction),
                _Field("magnitude", "magnitude_label", _nullable(_text), required=False)),
    DimensionAnnotation: (_Field("segment", "segment_index", _int),
                          _Field("value_m", "value", _positive)),
}
_DRAWING[PrimitiveDrawing] = tuple(
    _Field(key, key, _array(_record(_DRAWING, cls)), required=False)
    for key, cls in (("segments", Segment), ("labels", DrawingLabel),
                     ("support_glyphs", SupportGlyph), ("load_arrows", LoadArrow),
                     ("dimension_annotations", DimensionAnnotation)))
_read_drawing = _record(_DRAWING, PrimitiveDrawing)


def _annotated(drawing: PrimitiveDrawing) -> PrimitiveDrawing:
    """The drawing, once each dimension annotation is found to measure a
    dimension-class segment."""
    segments = drawing.segments
    for i, ann in enumerate(drawing.dimension_annotations):
        idx = ann.segment_index
        if not 0 <= idx < len(segments):
            reason = f"index {idx} out of range for {len(segments)} segments"
        elif segments[idx].stroke_class != "dimension":
            reason = f"segment {idx} is {segments[idx].stroke_class}, not a dimension line"
        else:
            continue
        raise _Defect(reason, "segment", i, "dimension_annotations")
    return drawing


def parse_drawing(text: str) -> PrimitiveDrawing:
    """Parse the structured drawing document (format in docs/drawing-format.md).
    Any defect raises a ``drawing`` PerceptionError naming its path, as
    ``$.segments[0].p1``."""
    try:
        return _annotated(_read_json(_read_drawing, text))
    except _Defect as defect:
        raise PerceptionError("drawing", f"{defect.path}: {defect.reason}", defect.path) from None


def _length(seg: Segment) -> float:
    return math.hypot(seg.p2[0] - seg.p1[0], seg.p2[1] - seg.p1[1])


def infer_scale(drawing: PrimitiveDrawing) -> ScaleResolution:
    """Derive the pixel-to-metric scale from dimension annotations.

    Falls back to normalized mode when no annotation exists (topological
    consistency over absolute accuracy). Annotations that disagree beyond
    the tolerance are an input conflict, not something to average away; so
    is a scale that is zero or infinite, or a mean or spread beyond the
    float range.
    """
    scales: list[float] = []
    for ann in drawing.dimension_annotations:
        px = _length(drawing.segments[ann.segment_index])
        scales.append(ann.value / px if px > 0 else math.inf)
    if not scales:
        return ScaleResolution(mode="normalized", meters_per_pixel=None, consistency=0.0)
    def conflict(cv: float) -> PerceptionError:
        return PerceptionError("scale", f"dimension annotations imply inconsistent scales "
                                        f"{[f'{s:.6g}' for s in scales]} (cv {cv:.2%})")

    if not all(0 < s < math.inf for s in scales):
        raise conflict(math.inf)
    try:
        mean = statistics.fmean(scales)
        cv = statistics.stdev(scales) / mean if len(scales) > 1 else 0.0
    except OverflowError:  # the sum of the scales is beyond the float range
        raise conflict(math.inf) from None
    if not cv <= DEFAULT_SCALE_CV_TOL:
        raise conflict(cv)
    return ScaleResolution(mode="metric", meters_per_pixel=mean, consistency=cv)


def infer_topology(drawing: PrimitiveDrawing, snap_tolerance: float = DEFAULT_SNAP_TOLERANCE,
                   ) -> tuple[tuple[tuple[int, float, float], ...],
                              tuple[tuple[int, int, int], ...]]:
    """Cluster structural segment endpoints into nodes and emit one element
    per segment (the contract is in docs/drawing-format.md).

    Endpoints within the snap tolerance (``math.dist``) are linked, and
    linked endpoints form one node (single linkage). Its position is the
    centroid: the sum of its endpoints, added left to right in segment
    order (p1 before p2) from 0.0, divided by their count. Returns
    pixel-space nodes (id, x, y) and elements (id, n1, n2); node ids are
    assigned in (x, y) order of the centroid, ties in the order of each
    node's first endpoint, and elements in segment order.
    """
    if not snap_tolerance > 0:  # NaN too
        raise ValueError("snap_tolerance must be positive")
    structural = [k for k, s in enumerate(drawing.segments) if s.stroke_class == "structural"]
    if not structural:
        return (), ()
    segments = drawing.segments
    xy = np.fromiter(itertools.chain.from_iterable([segments[k].p1 + segments[k].p2
                                                    for k in structural]),
                     float, 4 * len(structural)).reshape(-1, 2)
    labels = connected_components(len(xy), *pairs_within(xy, snap_tolerance))
    sizes = np.bincount(labels)
    sums = np.zeros((len(sizes), 2))
    with np.errstate(over="ignore"):  # a sum beyond the float range is inf
        np.add.at(sums, labels, xy)  # unbuffered: endpoints added in index order
    centroids = sums / sizes[:, None]
    cx, cy = centroids[:, 0], centroids[:, 1]
    order = np.lexsort((cy, cx))  # stable: ties keep the first-endpoint order
    node_of = np.empty(len(order), np.intp)
    node_of[order] = np.arange(1, len(order) + 1)
    ends = node_of[labels]
    n1, n2 = ends[0::2], ends[1::2]
    degenerate = np.flatnonzero(n1 == n2)
    if len(degenerate):
        raise PerceptionError(
            "degenerate", f"structural segment {structural[degenerate[0]]} collapses to a "
                          f"single node after snapping")
    nodes = tuple(zip(range(1, len(order) + 1), cx[order].tolist(), cy[order].tolist()))
    return nodes, tuple(zip(range(1, len(structural) + 1), n1.tolist(), n2.tolist()))


def parse_magnitude(label: str) -> float:
    """Parse a force label like '10 kN' or '500N' into newtons."""
    text = label.strip().lower()
    for unit in sorted(FORCE_UNITS, key=len, reverse=True):
        if text.endswith(unit):
            number = text[: -len(unit)].strip()
            break
    else:
        unit, number = "n", text
    try:
        value = float(number)
    except ValueError:
        raise PerceptionError("semantics", f"unparsable load magnitude {label!r}") from None
    return value * FORCE_UNITS[unit]


# the parameter directives of every analysis mode, by directive
_PARAMS = {p.directive: p for row in MODES.values() for p in row.params}


@dataclass(frozen=True)
class ContextDirectives:
    material: Material = DEFAULT_MATERIAL
    section: Section = DEFAULT_SECTION
    element_kind: str = "frame_beam"
    analysis: AnalysisSpec = AnalysisSpec()
    lines: tuple[str, ...] = ()


def parse_context(text: str) -> ContextDirectives:
    """Parse the line-oriented ``key: value`` context directives; ``#``
    starts a comment. The analysis spec holds the selected mode's parameters
    as directed (check_l1 audits their ranges), or their kept priors;
    another mode's directives are read and ignored."""
    found: dict[str, object] = {}  # ContextDirectives fields set by a directive
    mode, params = "static", {}  # params: every mode's parameter directives
    kept: list[str] = []
    for line in _code_lines(text):
        if not line or ":" not in line:
            continue
        kept.append(line)
        key, value = (part.strip() for part in line.split(":", 1))
        key = key.lower()
        try:
            if key in ("material", "section"):
                props = {k.lower(): v for k, v in (tok.split("=", 1) for tok in value.split())}
            if key == "material":
                found["material"] = Material(
                    1, float(props.get("e", DEFAULT_MATERIAL.youngs_modulus)),
                    float(props.get("nu", DEFAULT_MATERIAL.poisson_ratio)),
                    float(props.get("rho", DEFAULT_MATERIAL.density)))
            elif key == "section":
                inertia = float(props.get("i", DEFAULT_SECTION.moment_of_inertia))
                found["section"] = Section(1, 1, float(props.get("a", DEFAULT_SECTION.area)),
                                           inertia)
            elif key == "elements":
                kinds = [kind for kind, row in KINDS.items() if value.lower() in row.directives]
                if not kinds:
                    raise PerceptionError("semantics",
                                          f"unknown element kind directive {value!r}")
                found["element_kind"] = kinds[0]
            elif key == "mode":
                if value not in ANALYSIS_MODES:
                    raise PerceptionError("semantics", f"unknown analysis mode {value!r}")
                mode = value
            elif key in _PARAMS:
                params[key] = _PARAMS[key].read(value)
            # unknown keys are free-text context and simply ignored
        except ValueError as exc:
            raise PerceptionError("semantics",
                                  f"malformed context directive {line!r}: {exc}") from None
    analysis = AnalysisSpec(mode, **{p.attr: params.get(p.directive, p.prior if p.kept else None)
                                     for p in MODES[mode].params})
    return ContextDirectives(**found, analysis=analysis, lines=tuple(kept))


def _to_model_coords(nodes, scale: ScaleResolution) -> dict[int, Point]:
    if scale.mode == "metric":
        m = scale.meters_per_pixel
        return {nid: (x * m, y * m) for nid, x, y in nodes}
    return unit_box({nid: (x, y) for nid, x, y in nodes})


def _nearest_node(ids: list[int], xy: np.ndarray, p: Point) -> tuple[int, float]:
    """The node nearest to ``p``, the lowest id among equally near ones (at
    an infinite distance too), and its distance ``math.dist``: the nearest
    screened distance bounds ``ir._distances``, which measures the nodes
    near it exactly. No coordinate is NaN: nodes are centroids of finite
    endpoints.
    """
    d = _distances(xy, p, float(_distances(xy, p).min()))
    near = np.flatnonzero(d == d.min())
    return min(ids[k] for k in near.tolist()), float(d[near[0]])


def attach_semantics(drawing: PrimitiveDrawing,
                     topology: tuple[tuple[tuple[int, float, float], ...],
                                     tuple[tuple[int, int, int], ...]],
                     scale: ScaleResolution, context_text: str,
                     snap_tolerance: float = DEFAULT_SNAP_TOLERANCE) -> IRModel:
    """Bind supports, loads, materials and the analysis mode onto the topology."""
    nodes_px, elements_raw = topology
    if not nodes_px:
        raise PerceptionError("semantics", "topology is empty")
    ctx = parse_context(context_text)

    coords = _to_model_coords(nodes_px, scale)
    nodes = tuple(Node(nid, coords[nid][0], coords[nid][1]) for nid, _, _ in nodes_px)
    elements = tuple(Element(eid, ctx.element_kind, (n1, n2) if n1 <= n2 else (n2, n1),
                             ctx.section.id) for eid, n1, n2 in elements_raw)

    ids, xs, ys = zip(*nodes_px)
    xy = np.array([xs, ys], float).T
    supports, arrows = [], []
    for g in drawing.support_glyphs:
        nid, d = _nearest_node(ids, xy, g.anchor)
        if d > snap_tolerance:
            raise PerceptionError("semantics", f"support glyph {g.kind!r} at {g.anchor} is "
                                               f"{d:.1f} px from the nearest node "
                                               f"(snap tolerance {snap_tolerance})")
        supports.append(BoundaryCondition(nid, GLYPH_DOFS[g.kind]))
    for a in drawing.load_arrows:
        nid, _ = _nearest_node(ids, xy, a.anchor)
        magnitude = parse_magnitude(a.magnitude_label) if a.magnitude_label else 1.0
        arrows.append(Load(nid, magnitude * a.direction[0], magnitude * a.direction[1]))

    provenance = (f"scale={scale.mode}"
                  + (f" {scale.meters_per_pixel:.6g} m/px" if scale.meters_per_pixel else "")
                  + f"; directives={len(ctx.lines)}")
    # the glyphs and arrows at one node merge as a script's fix and load lines do
    model = IRModel(nodes=nodes, elements=elements, materials=(ctx.material,),
                    sections=(ctx.section,),
                    boundary_conditions=tuple(COLLECTIONS[BoundaryCondition].ingest(
                        {}, supports).values()),
                    loads=tuple(COLLECTIONS[Load].ingest({}, arrows).values()),
                    analysis=ctx.analysis,
                    coordinate_mode="metric" if scale.mode == "metric" else "normalized",
                    provenance=provenance)
    return canonicalize(model)


def default_reasoning(drawing: PrimitiveDrawing, context_text: str,
                      scale: ScaleResolution, belief: BeliefState) -> IRModel:
    """The deterministic reasoning step: topology inference plus semantics."""
    return attach_semantics(drawing, infer_topology(drawing), scale, context_text)


def orchestrate(drawing_doc: str, context_text: str,
                config: PerceptionConfig | None = None) -> IRModel:
    """Run the perception decision loop until the audit is clean.

    Each turn the reasoning step proposes a candidate; the audit findings are
    fed back through the belief state, and a candidate only replaces the
    draft when the non-degenerative gate accepts it. Pinned context
    directives ride along on every turn. Without a reasoning hook the loop
    ends after one turn, since the default step would repeat its candidate.
    PerceptionFailure reports the turns that ran.
    """
    config = config or PerceptionConfig()
    if config.max_turns < 1:
        raise ValueError("max_turns must be >= 1")
    drawing = parse_drawing(drawing_doc)
    scale = infer_scale(drawing)
    directives = parse_context(context_text)

    belief = BeliefState(draft=None, pinned_constraints=directives.lines,
                         findings=None, turn=0)
    reasoning = config.reasoning_hook or default_reasoning

    for turn in range(1, config.max_turns + 1):
        candidate = reasoning(drawing, context_text, scale, belief)
        report = audit(candidate, drawing, scale)
        if config.justification_hook is not None:
            justification = config.justification_hook(report, belief.draft, candidate)
            if justification is not None:
                report = replace(report, justification=justification)
        decision = accept_update(belief, candidate, report)
        accepted_draft = candidate if decision.accepted else belief.draft
        belief = BeliefState(draft=accepted_draft,
                             pinned_constraints=belief.pinned_constraints,
                             findings=report, turn=turn)
        if report.clean and decision.accepted:
            return candidate
        if config.reasoning_hook is None:
            # the default step ignores the belief state: every later turn
            # would propose this same candidate and meet the same findings
            break
    raise PerceptionFailure(report, turn)
