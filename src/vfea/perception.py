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

from .ir import (ANALYSIS_MODES, AnalysisSpec, BoundaryCondition, Element, IRModel, Load,
                 Material, Node, Section, _Defect, _Field, _array, _finite, _int,
                 _nullable, _one_of, _read_json, _record, _text, canonicalize,
                 pairs_within, unit_box)
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


class DrawingParseError(Exception):
    pass


class ScaleConflictError(Exception):
    def __init__(self, scales: list[float], cv: float):
        self.scales = scales
        self.cv = cv
        super().__init__(f"dimension annotations imply inconsistent scales "
                         f"{[f'{s:.6g}' for s in scales]} (cv {cv:.2%})")


class DegenerateElementError(Exception):
    pass


class SemanticsError(Exception):
    pass


class PerceptionFailure(Exception):
    def __init__(self, report: ValidationReport, turns: int):
        self.report = report
        self.turns = turns
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
    Any defect raises DrawingParseError naming its path, as ``$.segments[0].p1``."""
    try:
        return _annotated(_read_json(_read_drawing, text))
    except _Defect as defect:
        raise DrawingParseError(f"{defect.path}: {defect.reason}") from None


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
    if not all(0 < s < math.inf for s in scales):
        raise ScaleConflictError(scales, math.inf)
    try:
        mean = statistics.fmean(scales)
        cv = statistics.stdev(scales) / mean if len(scales) > 1 else 0.0
    except OverflowError:  # the sum of the scales is beyond the float range
        raise ScaleConflictError(scales, math.inf) from None
    if not cv <= DEFAULT_SCALE_CV_TOL:
        raise ScaleConflictError(scales, cv)
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
        raise DegenerateElementError(
            f"structural segment {structural[degenerate[0]]} collapses to a single node "
            f"after snapping")
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
        raise SemanticsError(f"unparsable load magnitude {label!r}") from None
    return value * FORCE_UNITS[unit]


@dataclass(frozen=True)
class ContextDirectives:
    material: Material = DEFAULT_MATERIAL
    section: Section = DEFAULT_SECTION
    element_kind: str = "frame_beam"
    mode: str = "static"
    modal_count: int | None = None
    volfrac: float | None = None
    opt_iterations: int | None = None
    lines: tuple[str, ...] = ()


def parse_context(text: str) -> ContextDirectives:
    """Parse the line-oriented ``key: value`` context directives."""
    material = DEFAULT_MATERIAL
    section = DEFAULT_SECTION
    element_kind = "frame_beam"
    mode = "static"
    modal_count = None
    volfrac = None
    opt_iterations = None
    kept: list[str] = []
    # lines end at \n, \r\n or \r, as in scripts (simscript.parse_script)
    for raw in text.replace("\r\n", "\n").replace("\r", "\n").split("\n"):
        line = raw.strip()
        if not line or line.startswith("#") or ":" not in line:
            continue
        kept.append(line)
        key, value = (part.strip() for part in line.split(":", 1))
        key = key.lower()
        try:
            if key == "material":
                props = {k.lower(): v for k, v in
                         (tok.split("=", 1) for tok in value.split())}
                material = Material(id=1,
                                    youngs_modulus=float(props.get("e", 210e9)),
                                    poisson_ratio=float(props.get("nu", 0.3)),
                                    density=float(props.get("rho", 7850.0)))
            elif key == "section":
                props = {k.lower(): v for k, v in
                         (tok.split("=", 1) for tok in value.split())}
                inertia = float(props["i"]) if "i" in props else DEFAULT_SECTION.moment_of_inertia
                section = Section(id=1, material_id=1,
                                  area=float(props.get("a", DEFAULT_SECTION.area)),
                                  moment_of_inertia=inertia)
            elif key == "elements":
                v = value.lower()
                if v in ("truss", "truss_bar"):
                    element_kind = "truss_bar"
                elif v in ("frame", "frame_beam"):
                    element_kind = "frame_beam"
                else:
                    raise SemanticsError(f"unknown element kind directive {value!r}")
            elif key == "mode":
                if value not in ANALYSIS_MODES:
                    raise SemanticsError(f"unknown analysis mode {value!r}")
                mode = value
            elif key == "modal_count":
                modal_count = int(value)
            elif key == "volfrac":
                volfrac = float(value)
            elif key == "opt_iterations":
                opt_iterations = int(value)
            # unknown keys are free-text context and simply ignored
        except (ValueError, KeyError) as exc:
            raise SemanticsError(f"malformed context directive {line!r}: {exc}") from None
    return ContextDirectives(material=material, section=section, element_kind=element_kind,
                             mode=mode, modal_count=modal_count, volfrac=volfrac,
                             opt_iterations=opt_iterations, lines=tuple(kept))


def _to_model_coords(nodes, scale: ScaleResolution) -> dict[int, Point]:
    if scale.mode == "metric":
        m = scale.meters_per_pixel
        return {nid: (x * m, y * m) for nid, x, y in nodes}
    return unit_box({nid: (x, y) for nid, x, y in nodes})


def _nearest_node(ids: list[int], xy: np.ndarray, p: Point) -> tuple[int, float]:
    """The node nearest to ``p``, the lowest id among equally near ones (at
    an infinite distance too), and its distance ``math.dist``.

    One ``np.hypot`` over the coordinates (n, 2) screens the nodes. It and
    ``math.dist`` differ by a few units in the last place at most, so only
    the nodes within a relative 2**-40 of the nearest screened distance are
    measured with ``math.dist``. No coordinate is NaN: nodes are centroids
    of finite endpoints.
    """
    with np.errstate(over="ignore"):  # a distance beyond the float range is inf
        screen = np.hypot(xy[:, 0] - p[0], xy[:, 1] - p[1])
        near = np.flatnonzero(screen <= screen.min() * (1 + 2 ** -40) + 2 ** -1070)
    d, nid = min((math.dist(xy[k].tolist(), p), ids[k]) for k in near.tolist())
    return nid, d


def attach_semantics(drawing: PrimitiveDrawing,
                     topology: tuple[tuple[tuple[int, float, float], ...],
                                     tuple[tuple[int, int, int], ...]],
                     scale: ScaleResolution, context_text: str,
                     snap_tolerance: float = DEFAULT_SNAP_TOLERANCE) -> IRModel:
    """Bind supports, loads, materials and the analysis mode onto the topology."""
    nodes_px, elements_raw = topology
    if not nodes_px:
        raise SemanticsError("topology is empty")
    ctx = parse_context(context_text)

    coords = _to_model_coords(nodes_px, scale)
    nodes = tuple(Node(nid, coords[nid][0], coords[nid][1]) for nid, _, _ in nodes_px)
    elements = tuple(Element(eid, ctx.element_kind, (n1, n2) if n1 <= n2 else (n2, n1),
                             ctx.section.id) for eid, n1, n2 in elements_raw)

    ids, xs, ys = zip(*nodes_px)
    xy = np.array([xs, ys], float).T
    bc_dofs: dict[int, frozenset[str]] = {}
    for g in drawing.support_glyphs:
        nid, d = _nearest_node(ids, xy, g.anchor)
        if d > snap_tolerance:
            raise SemanticsError(f"support glyph {g.kind!r} at {g.anchor} is {d:.1f} px "
                                 f"from the nearest node (snap tolerance {snap_tolerance})")
        bc_dofs[nid] = bc_dofs.get(nid, frozenset()) | GLYPH_DOFS[g.kind]
    bcs = tuple(BoundaryCondition(nid, dofs) for nid, dofs in sorted(bc_dofs.items()))

    load_sum: dict[int, list[float]] = {}
    for a in drawing.load_arrows:
        nid, _ = _nearest_node(ids, xy, a.anchor)
        magnitude = parse_magnitude(a.magnitude_label) if a.magnitude_label else 1.0
        acc = load_sum.setdefault(nid, [0.0, 0.0, 0.0])
        acc[0] += magnitude * a.direction[0]
        acc[1] += magnitude * a.direction[1]
    loads = tuple(Load(nid, fx, fy, mz) for nid, (fx, fy, mz) in sorted(load_sum.items()))

    if ctx.mode == "modal":
        count = 1 if ctx.modal_count is None else ctx.modal_count  # audited by check_l1
        analysis = AnalysisSpec(mode="modal", modal_count=count)
    elif ctx.mode == "topology_optimization":
        analysis = AnalysisSpec(mode="topology_optimization",
                                opt_volume_fraction=ctx.volfrac,
                                opt_max_iterations=ctx.opt_iterations)
    else:
        analysis = AnalysisSpec(mode="static")

    provenance = (f"scale={scale.mode}"
                  + (f" {scale.meters_per_pixel:.6g} m/px" if scale.meters_per_pixel else "")
                  + f"; directives={len(ctx.lines)}")
    model = IRModel(nodes=nodes, elements=elements, materials=(ctx.material,),
                    sections=(ctx.section,), boundary_conditions=bcs, loads=loads,
                    analysis=analysis,
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
