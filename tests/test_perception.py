"""Drawing parsing, scale resolution, topology clustering, semantics, and
the orchestration loop with scripted reasoning hooks."""

from __future__ import annotations

import ast
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import SUITE_DIR
from vfea import perception
from vfea.harness import load_case
from vfea.ir import AnalysisSpec, IRModel, serialize
from vfea.perception import (LoadArrow, PerceptionConfig, PerceptionError,
                             PerceptionFailure, PrimitiveDrawing, ScaleResolution,
                             Segment, SupportGlyph,
                             attach_semantics, default_reasoning, infer_scale,
                             infer_topology, orchestrate, parse_drawing,
                             parse_magnitude)
from vfea.validation import audit

TWO_SEGMENTS_PIN = json.dumps({
    "segments": [
        {"p1": [0, 0], "p2": [200, 0], "class": "structural"},
        {"p1": [200, 0], "p2": [400, 0], "class": "structural"},
    ],
    "support_glyphs": [{"anchor": [0, 0], "kind": "pin"}],
})

CANTILEVER_DOC = json.dumps({
    "segments": [
        {"p1": [0, 0], "p2": [200, 0], "class": "structural"},
        {"p1": [0, -40], "p2": [200, -40], "class": "dimension"},
    ],
    "support_glyphs": [{"anchor": [0, 0], "kind": "fixed"}],
    "load_arrows": [{"anchor": [200, 0], "direction": [0, -1], "magnitude": "1 kN"}],
    "dimension_annotations": [{"segment": 1, "value_m": 2.0}],
})

CONTEXT = "material: E=210e9 nu=0.3 rho=7850\nsection: A=0.01 I=1e-6\nelements: frame\nmode: static\n"


# (edit of the cantilever document, start of the error it raises)
MALFORMED = [
    (lambda d: d.update(segments=5), "$.segments: expected array, got int"),
    (lambda d: d.update(segments={"a": 1}), "$.segments: expected array, got dict"),
    (lambda d: d["segments"][1].update(p1=["1e3", 0]), "$.segments[1].p1[0]: expected number"),
    (lambda d: d["segments"][0].update(p2=[True, 0]), "$.segments[0].p2[0]: expected number"),
    (lambda d: d["segments"][0].update(p2=[0, 1, 2]), "$.segments[0].p2: expected exactly 2"),
    (lambda d: d["segments"][0].update(p2=[1e308, 10 ** 400]),
     "$.segments[0].p2[1]: number out of float range"),
    (lambda d: d["dimension_annotations"][0].update(value_m="2"),
     "$.dimension_annotations[0].value_m: expected number, got str"),
    (lambda d: d["dimension_annotations"][0].update(value_m=0),
     "$.dimension_annotations[0].value_m: expected a positive value"),
    (lambda d: d["segments"][0].update(width=2), "$.segments[0].width: unknown field"),
    (lambda d: d["load_arrows"][0].pop("anchor"),
     "$.load_arrows[0].anchor: missing required field"),
    (lambda d: d["load_arrows"][0].update(direction=[0, 0]),
     "$.load_arrows[0].direction: zero vector"),
    (lambda d: d["load_arrows"][0].update(magnitude=10),
     "$.load_arrows[0].magnitude: expected string, got int"),
    (lambda d: d.update(notes=[]), "$.notes: unknown field"),
]


class TestParseDrawing:
    def test_counts_preserved(self):
        d = parse_drawing(TWO_SEGMENTS_PIN)
        assert len(d.segments) == 2
        assert len(d.support_glyphs) == 1

    def test_empty_document_is_valid(self):
        d = parse_drawing("{}")
        assert d == parse_drawing('{"segments": []}')
        assert d.segments == ()

    def test_out_of_range_annotation_index(self):
        doc = json.loads(CANTILEVER_DOC)
        doc["dimension_annotations"][0]["segment"] = 99
        with pytest.raises(PerceptionError) as err:
            parse_drawing(json.dumps(doc))
        assert err.value.kind == "drawing"
        assert "out of range" in str(err.value)

    def test_annotation_must_reference_dimension_segment(self):
        doc = json.loads(CANTILEVER_DOC)
        doc["dimension_annotations"][0]["segment"] = 0  # structural
        with pytest.raises(PerceptionError) as err:
            parse_drawing(json.dumps(doc))
        assert err.value.kind == "drawing"

    def test_direction_normalized_on_parse(self):
        doc = json.loads(CANTILEVER_DOC)
        doc["load_arrows"][0]["direction"] = [3, -4]
        d = parse_drawing(json.dumps(doc))
        assert d.load_arrows[0].direction == pytest.approx((0.6, -0.8))

    @settings(max_examples=200, deadline=None)
    @given(st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                     st.floats(allow_nan=False, allow_infinity=False))
           .filter(lambda v: 0 < math.hypot(*v) < math.inf))
    def test_direction_with_a_finite_norm_is_divided_by_it(self, direction):
        doc = json.loads(CANTILEVER_DOC)
        doc["load_arrows"][0]["direction"] = list(direction)
        norm = math.hypot(*direction)
        assert parse_drawing(json.dumps(doc)).load_arrows[0].direction == (
            direction[0] / norm, direction[1] / norm)

    @pytest.mark.parametrize("direction", [[1.7e308, 1.7e308], [-1.7e308, 1e308],
                                           [1e308, -1.7e308]])
    def test_direction_whose_norm_overflows_stays_a_unit_vector(self, direction):
        doc = json.loads(CANTILEVER_DOC)
        doc["load_arrows"][0]["direction"] = direction
        dx, dy = parse_drawing(json.dumps(doc)).load_arrows[0].direction
        assert math.hypot(dx, dy) == pytest.approx(1.0, rel=1e-15)
        assert math.atan2(dy, dx) == pytest.approx(math.atan2(direction[1], direction[0]),
                                                   rel=1e-15)

    def test_malformed_syntax(self):
        with pytest.raises(PerceptionError) as err:
            parse_drawing("{segments")
        assert err.value.kind == "drawing"

    def test_unknown_class(self):
        with pytest.raises(PerceptionError) as err:
            parse_drawing('{"segments": [{"p1": [0,0], "p2": [1,1], "class": "wall"}]}')
        assert err.value.kind == "drawing"

    @pytest.mark.parametrize("edit,path", MALFORMED, ids=[path for _, path in MALFORMED])
    def test_malformed_field_names_its_path(self, edit, path):
        doc = json.loads(CANTILEVER_DOC)
        edit(doc)
        with pytest.raises(PerceptionError) as err:
            parse_drawing(json.dumps(doc))
        assert err.value.kind == "drawing"
        assert str(err.value).startswith(path)

    def test_null_magnitude_is_no_label(self):
        doc = json.loads(CANTILEVER_DOC)
        doc["load_arrows"][0]["magnitude"] = None
        assert parse_drawing(json.dumps(doc)).load_arrows[0].magnitude_label is None


class TestInferScale:
    def test_single_annotation(self):
        scale = infer_scale(parse_drawing(CANTILEVER_DOC))
        assert scale.mode == "metric"
        assert scale.meters_per_pixel == pytest.approx(0.01)  # 2.0 m over 200 px
        assert scale.consistency == 0.0

    def test_no_annotation_falls_back_to_normalized(self):
        scale = infer_scale(parse_drawing(TWO_SEGMENTS_PIN))
        assert scale.mode == "normalized"
        assert scale.meters_per_pixel is None

    def test_two_consistent_annotations(self):
        doc = json.loads(CANTILEVER_DOC)
        doc["segments"].append({"p1": [0, -80], "p2": [100, -80], "class": "dimension"})
        doc["dimension_annotations"].append({"segment": 2, "value_m": 1.01})
        scale = infer_scale(parse_drawing(json.dumps(doc)))
        # hand oracle: scales 0.0100 and 0.0101, mean 0.01005, sample cv ~0.70%
        assert scale.mode == "metric"
        assert scale.meters_per_pixel == pytest.approx(0.01005)
        assert scale.consistency == pytest.approx(0.007036, rel=1e-3)

    @pytest.mark.parametrize("dims,values", [
        ([((0, -40), (1, -40)), ((0, -80), (1, -80))], [1e308, 1e308]),  # their sum overflows
        ([((0, -40), (1e-320, -40)), ((0, -80), (100, -80))], [1.0, 1.0]),  # an infinite scale
        ([((0, -40), (1e308, -40))], [5e-324]),  # a zero scale
    ])
    def test_scales_beyond_the_float_range_conflict(self, dims, values):
        doc = json.loads(CANTILEVER_DOC)
        doc["segments"][1:] = [{"p1": p1, "p2": p2, "class": "dimension"} for p1, p2 in dims]
        doc["dimension_annotations"] = [{"segment": i + 1, "value_m": v}
                                        for i, v in enumerate(values)]
        with pytest.raises(PerceptionError) as err:
            orchestrate(json.dumps(doc), CONTEXT)
        assert err.value.kind == "scale"

    def test_conflicting_annotations_raise(self):
        doc = json.loads(CANTILEVER_DOC)
        doc["segments"].append({"p1": [0, -80], "p2": [100, -80], "class": "dimension"})
        doc["dimension_annotations"].append({"segment": 2, "value_m": 1.5})
        with pytest.raises(PerceptionError) as err:
            infer_scale(parse_drawing(json.dumps(doc)))
        assert err.value.kind == "scale"
        # the message lists the two scales
        scales = re.fullmatch(r"dimension annotations imply inconsistent scales (\[.*\]) "
                              r"\(cv .*\)", str(err.value))
        assert len(ast.literal_eval(scales[1])) == 2


class TestInferTopology:
    def test_shared_endpoint_clusters(self):
        d = parse_drawing(TWO_SEGMENTS_PIN)
        nodes, elements = infer_topology(d, snap_tolerance=3.0)
        assert len(nodes) == 3
        assert len(elements) == 2

    def test_nearby_endpoints_snap(self):
        doc = {"segments": [
            {"p1": [0, 0], "p2": [200, 0], "class": "structural"},
            {"p1": [201.5, 1.0], "p2": [400, 0], "class": "structural"},
        ]}
        nodes, elements = infer_topology(parse_drawing(json.dumps(doc)), 3.0)
        assert len(nodes) == 3  # endpoint clustering oracle: 4 points, 1 merge

    def test_dimension_segments_produce_nothing(self):
        doc = {"segments": [{"p1": [0, 0], "p2": [100, 0], "class": "dimension"}]}
        nodes, elements = infer_topology(parse_drawing(json.dumps(doc)), 3.0)
        assert nodes == () and elements == ()

    def test_single_segment(self):
        doc = {"segments": [{"p1": [0, 0], "p2": [100, 0], "class": "structural"}]}
        nodes, elements = infer_topology(parse_drawing(json.dumps(doc)), 3.0)
        assert len(nodes) == 2 and len(elements) == 1

    def test_degenerate_segment_rejected(self):
        doc = {"segments": [{"p1": [0, 0], "p2": [1.0, 0], "class": "structural"}]}
        with pytest.raises(PerceptionError) as err:
            infer_topology(parse_drawing(json.dumps(doc)), 3.0)
        assert err.value.kind == "degenerate"

    @pytest.mark.parametrize("x,centroid", [
        # ten endpoints at 0.1: plain doubles give 0.9999999999999999 / 10,
        # a compensated sum (Python >= 3.12's sum of floats) 1.0 / 10
        ([0.1] * 10, 0.9999999999999999 / 10),
        ([-0.0, -0.0], 0.0),
        # in order 0.6000000000000001; reversed or compensated 0.6
        ([0.1, 0.2, 0.3], 0.6000000000000001 / 3)])
    def test_centroid_adds_left_to_right_in_plain_doubles(self, x, centroid):
        segments = [Segment((xk, 0.0), (1e17, 10.0 * k + 10.0), "structural")
                    for k, xk in enumerate(x)]
        nodes, _ = infer_topology(PrimitiveDrawing(segments=tuple(segments)), 3.0)
        assert math.copysign(1.0, nodes[0][1]) == 1.0
        assert nodes[0][1:] == (centroid, 0.0)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
    def test_non_positive_or_nan_tolerance_rejected(self, tol):
        with pytest.raises(ValueError):
            infer_topology(parse_drawing(TWO_SEGMENTS_PIN), tol)

    def test_scale_invariance_under_power_of_two(self):
        # exact fp scaling: doubling coordinates and tolerance preserves incidence
        d = parse_drawing(TWO_SEGMENTS_PIN)
        base_nodes, base_elems = infer_topology(d, 3.0)
        scaled = replace(d, segments=tuple(
            replace(s, p1=(s.p1[0] * 4, s.p1[1] * 4), p2=(s.p2[0] * 4, s.p2[1] * 4))
            for s in d.segments))
        nodes, elems = infer_topology(scaled, 12.0)
        assert elems == base_elems
        assert [n[0] for n in nodes] == [n[0] for n in base_nodes]


def plain_sum(values) -> float:
    """``values`` added left to right from 0.0 in plain doubles (``sum`` of
    floats is compensated from Python 3.12 on)."""
    total = 0.0
    for v in values:
        total += v
    return total


def naive_topology(drawing: PrimitiveDrawing, tol: float):
    """All-pairs reference for ``infer_topology``: clusters grown by a flood
    fill from each endpoint not yet taken, in endpoint order."""
    structural = [s for s in drawing.segments if s.stroke_class == "structural"]
    points = [p for s in structural for p in (s.p1, s.p2)]
    linked = [[j for j in range(len(points)) if j != i and math.dist(points[i], points[j]) <= tol]
              for i in range(len(points))]
    clusters, taken = [], set()
    for i in range(len(points)):
        if i in taken:
            continue
        members, frontier = {i}, [i]
        while frontier:
            new = {j for k in frontier for j in linked[k]} - members
            members |= new
            frontier = list(new)
        taken |= members
        clusters.append(sorted(members))
    centroids = sorted(((plain_sum(points[i][0] for i in m) / len(m),
                         plain_sum(points[i][1] for i in m) / len(m), m) for m in clusters),
                       key=lambda c: (c[0], c[1]))
    node_of = {i: nid for nid, (_, _, m) in enumerate(centroids, start=1) for i in m}
    elements = tuple((k + 1, node_of[2 * k], node_of[2 * k + 1]) for k in range(len(structural)))
    if any(a == b for _, a, b in elements):
        raise PerceptionError("degenerate", "collapsed segment")
    return tuple((nid, cx, cy) for nid, (cx, cy, _) in enumerate(centroids, start=1)), elements


@st.composite
def structural_drawings(draw):
    """Segments whose endpoints sit on multiples of the tolerance (exactly one
    tolerance apart), on half multiples, or anywhere near; negative
    coordinates, shared endpoints and non-structural strokes included."""
    tol = draw(st.one_of(st.sampled_from([0.5, 1.0, 3.0]),
                         st.floats(min_value=1e-3, max_value=10.0)))
    coord = st.one_of(st.integers(-4, 4).map(lambda k: k * tol),
                      st.integers(-8, 8).map(lambda k: k * tol / 2),
                      st.floats(min_value=-5 * tol, max_value=5 * tol))
    point = st.tuples(coord, coord)
    segments = draw(st.lists(st.builds(Segment, point, point,
                                       st.sampled_from(["structural"] * 4 + ["dimension"])),
                             max_size=16))
    return PrimitiveDrawing(segments=tuple(segments)), tol


@settings(max_examples=150, deadline=None)
@given(structural_drawings())
def test_infer_topology_equals_all_pairs_reference(drawing_and_tol):
    drawing, tol = drawing_and_tol
    try:
        expected = naive_topology(drawing, tol)
    except PerceptionError as want:
        with pytest.raises(PerceptionError) as err:
            infer_topology(drawing, tol)
        assert err.value.kind == want.kind == "degenerate"
    else:
        assert infer_topology(drawing, tol) == expected


@pytest.mark.parametrize("case_dir", sorted(p.parent for p in SUITE_DIR.glob("*/case.json")),
                         ids=lambda p: p.name)
def test_bundled_case_perceives_its_reference_model(case_dir):
    case = load_case(case_dir)
    model = orchestrate(case.drawing_path.read_text(encoding="utf-8"),
                        case.context_path.read_text(encoding="utf-8"))
    assert serialize(model) == case.truth_ir_path.read_text(encoding="utf-8")


@pytest.mark.parametrize("directive,count", [("modal_count: 0", None), ("modal_count: -2", None),
                                             ("", 1), ("modal_count: 3", 3)])
def test_modal_count_directive(directive, count):
    # only an absent directive defaults to one mode; a non-positive count is
    # kept, so the audit rejects it instead of running one mode
    case = SUITE_DIR / "frame_modal"
    context = (case / "context.txt").read_text(encoding="utf-8").replace("modal_count: 3",
                                                                          directive)
    drawing = (case / "drawing.json").read_text(encoding="utf-8")
    if count is None:
        with pytest.raises(PerceptionFailure) as err:
            orchestrate(drawing, context)
        assert {f.code for f in err.value.report.findings} == {"mode-params"}
    else:
        assert orchestrate(drawing, context).analysis.modal_count == count


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_context_lines_end_where_script_lines_end(end):
    directives = perception.parse_context(f"mode: modal{end}modal_count: 4{end}elements: truss")
    assert (directives.analysis, directives.element_kind) == (
        AnalysisSpec("modal", modal_count=4), "truss_bar")


def test_documented_context_example_parses():
    doc = (SUITE_DIR.parent / "docs" / "drawing-format.md").read_text(encoding="utf-8")
    block = doc.split("## Context text", 1)[1].split("```")[1]
    directives = perception.parse_context(block)
    assert (directives.material.youngs_modulus, directives.material.poisson_ratio,
            directives.material.density) == (210e9, 0.3, 7850.0)
    assert (directives.section.area, directives.section.moment_of_inertia) == (0.01, 1e-6)
    assert (directives.element_kind, directives.analysis) == ("frame_beam", AnalysisSpec())
    assert directives.lines[2] == "elements: frame"
    # the parameter directives of the other modes, read when their mode is selected
    for mode, spec in [("modal", AnalysisSpec("modal", modal_count=3)),
                       ("topology_optimization", AnalysisSpec("topology_optimization",
                                                              opt_volume_fraction=0.5,
                                                              opt_max_iterations=40))]:
        assert perception.parse_context(block.replace("mode: static", f"mode: {mode}")
                                        ).analysis == spec


def test_hash_starts_a_context_comment():
    directives = perception.parse_context("# elements: truss\nmode: modal # static\n"
                                          "modal_count: 2#3\n")
    assert (directives.element_kind, directives.analysis, directives.lines) == (
        "frame_beam", AnalysisSpec("modal", modal_count=2), ("mode: modal", "modal_count: 2"))


@pytest.mark.parametrize("separator", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                       "\u2028", "\u2029"])
def test_other_line_breaks_stay_inside_a_directive(separator):
    # str.splitlines would end the line at each of these and read a second
    # directive; here the mode directive keeps the rest of the line and is
    # an unknown mode
    with pytest.raises(PerceptionError, match="unknown analysis mode") as err:
        perception.parse_context(f"mode: static{separator}elements: truss\n")
    assert err.value.kind == "semantics"


class TestMagnitude:
    @pytest.mark.parametrize("label,newtons", [
        ("10 kN", 10_000.0), ("500 N", 500.0), ("1.5kN", 1500.0),
        ("2 MN", 2e6), ("250", 250.0),
    ])
    def test_units(self, label, newtons):
        assert parse_magnitude(label) == pytest.approx(newtons)

    def test_unparsable(self):
        with pytest.raises(PerceptionError) as err:
            parse_magnitude("ten kN")
        assert err.value.kind == "semantics"


class TestAttachSemantics:
    def build(self, doc: str, context: str = CONTEXT) -> IRModel:
        d = parse_drawing(doc)
        scale = infer_scale(d)
        return attach_semantics(d, infer_topology(d, 3.0), scale, context)

    def test_fixed_glyph_maps_to_full_constraint(self):
        m = self.build(CANTILEVER_DOC)
        assert m.boundary_conditions[0].constrained_dofs == frozenset({"ux", "uy", "rz"})

    def test_load_unit_conversion(self):
        m = self.build(CANTILEVER_DOC)
        load = m.loads[0]
        assert (load.fx, load.fy) == (0.0, pytest.approx(-1000.0))

    def test_topopt_context_directives(self):
        ctx = CONTEXT.replace("mode: static",
                              "mode: topology_optimization\nvolfrac: 0.5")
        m = self.build(CANTILEVER_DOC, ctx)
        assert m.analysis.mode == "topology_optimization"
        assert m.analysis.opt_volume_fraction == 0.5

    def test_metric_coordinates(self):
        m = self.build(CANTILEVER_DOC)
        assert m.node_positions()[2] == pytest.approx((2.0, 0.0))
        assert m.coordinate_mode == "metric"

    def test_normalized_coordinates_inside_unit_box(self):
        m = self.build(TWO_SEGMENTS_PIN, CONTEXT.replace("frame", "truss"))
        xs = [n.x for n in m.nodes] + [n.y for n in m.nodes]
        assert all(-1e-9 <= v <= 1 + 1e-9 for v in xs)
        assert m.coordinate_mode == "normalized"

    def test_load_arrow_at_no_finite_distance_binds_to_a_node(self):
        doc = {"segments": [{"p1": [-1.7e308, 0], "p2": [-1.6e308, 0], "class": "structural"}],
               "load_arrows": [{"anchor": [1.7e308, 0], "direction": [0, -1]}]}
        drawing = parse_drawing(json.dumps(doc))
        scale = infer_scale(drawing)
        model = attach_semantics(drawing, infer_topology(drawing), scale, CONTEXT)
        assert [(l.node_id, l.fy) for l in model.loads] == [(1, -1.0)]

    def test_glyph_too_far_from_any_node(self):
        doc = json.loads(CANTILEVER_DOC)
        doc["support_glyphs"][0]["anchor"] = [50, 50]
        with pytest.raises(PerceptionError) as err:
            self.build(json.dumps(doc))
        assert err.value.kind == "semantics"

    def test_unparsable_arrow_magnitude(self):
        doc = json.loads(CANTILEVER_DOC)
        doc["load_arrows"][0]["magnitude"] = "lots"
        with pytest.raises(PerceptionError) as err:
            self.build(json.dumps(doc))
        assert err.value.kind == "semantics"


def head_nearest_node(nodes, p) -> tuple[int, float]:
    """``_nearest_node`` as it was before its array pass: ``math.dist`` to
    every node, the least (distance, id)."""
    d, nid = min((math.dist((x, y), p), nid) for nid, x, y in nodes)
    return nid, d


_GLYPH_COORD = st.one_of(st.integers(-3, 3).map(float), st.floats(-1e3, 1e3),
                         st.sampled_from([1.7e308, -1.7e308, 1.7976931348623157e308, 1e-300]))


@st.composite
def _glyph_layouts(draw):
    """Nodes (id, x, y) with shuffled ids, some beyond int64, coordinates on
    a small grid (so distances tie), at the float range's end, or infinite,
    and a finite anchor, as drawings have, on, near or between them."""
    n = draw(st.integers(1, 8))
    ids = draw(st.lists(st.one_of(st.integers(1, 20), st.sampled_from([2**63, 10**30])),
                        min_size=n, max_size=n, unique=True))
    coord = st.one_of(_GLYPH_COORD, st.sampled_from([math.inf, -math.inf]))
    nodes = tuple((i, draw(coord), draw(coord)) for i in ids)
    anchor = draw(st.tuples(_GLYPH_COORD, _GLYPH_COORD))
    _, x, y = draw(st.sampled_from(nodes))
    if math.isfinite(x) and math.isfinite(y) and draw(st.booleans()):
        # a few ulps beside a node, or at an offset whose np.hypot is not
        # math.hypot's
        dx, dy = draw(st.sampled_from([(0.0, 0.0), (-0.9388858913601634, 0.9903412489171073),
                                       (0.03621910915668547, -0.111067243147569)]))
        near = (math.nextafter(x + dx, draw(st.sampled_from([-math.inf, math.inf]))), y + dy)
        anchor = near if math.isfinite(near[0]) else anchor
    return nodes, anchor


@settings(max_examples=400, deadline=None)
@given(_glyph_layouts())
# math.dist puts both nodes 1.414526337423396 from the anchor, np.hypot puts
# node 1 an ulp further: the tie still goes to the lower id
@example(layout=(((1, 0.9643218765169291, 1.0348758755209806),
                  (2, 1.0392558658275888, 0.9595999190326122)), (0.0, 0.0)))
def test_nearest_node_equals_its_previous_algorithm(layout):
    nodes, anchor = layout
    ids, xs, ys = zip(*nodes)
    got = perception._nearest_node(list(ids), np.array([xs, ys], float).T, anchor)
    want = head_nearest_node(nodes, anchor)
    assert got == want


@settings(max_examples=100, deadline=None)
@given(_glyph_layouts(), st.lists(st.sampled_from(["pin", "roller_y", "fixed"]), min_size=1,
                                  max_size=3))
def test_attach_semantics_binds_glyphs_as_its_previous_algorithm(layout, kinds):
    nodes, anchor = layout
    drawing = PrimitiveDrawing(
        support_glyphs=tuple(SupportGlyph(anchor, kind) for kind in kinds),
        load_arrows=(LoadArrow(anchor, (0.0, -1.0), "2 kN"),))
    scale = ScaleResolution("normalized", None, 0.0)
    topology = (nodes, ())

    def bind():
        model = attach_semantics(drawing, topology, scale, CONTEXT, math.inf)
        return model.boundary_conditions, model.loads

    got = bind()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(perception, "_nearest_node",
                      lambda ids, xy, p: head_nearest_node(nodes, p))
        want = bind()
    assert got == want


class TestOrchestrate:
    def test_clean_drawing_one_turn(self):
        model = orchestrate(CANTILEVER_DOC, CONTEXT)
        assert audit(model).clean
        assert len(model.nodes) == 2

    def test_flaky_hook_recovers_on_second_turn(self):
        calls: list[int] = []
        findings_seen: list[tuple[str, ...]] = []

        def flaky(drawing, context, scale, belief):
            calls.append(belief.turn)
            findings_seen.append(tuple(f.code for f in belief.findings.findings)
                                 if belief.findings else ())
            model = default_reasoning(drawing, context, scale, belief)
            if len(calls) == 1:  # first turn reads the fixed support as a pin
                weak = replace(model.boundary_conditions[0],
                               constrained_dofs=frozenset({"ux", "uy"}))
                return replace(model, boundary_conditions=(weak,))
            return model

        config = PerceptionConfig(max_turns=3, reasoning_hook=flaky)
        model = orchestrate(CANTILEVER_DOC, CONTEXT, config)
        assert audit(model).clean
        assert len(calls) == 2
        # the second turn saw the first turn's stability finding
        assert "rigid-body-motion" in findings_seen[1]

    def test_degenerative_update_rejected_draft_unchanged(self):
        drafts: list[IRModel | None] = []

        def degrading(drawing, context, scale, belief):
            drafts.append(belief.draft)
            model = default_reasoning(drawing, context, scale, belief)
            if belief.turn >= 1:  # after the first accepted draft, drop a node
                return replace(model, nodes=model.nodes[:1], elements=(),
                               boundary_conditions=model.boundary_conditions[:1])
            return model

        def spoil(report, old, new):
            return None  # never justify

        config = PerceptionConfig(max_turns=2, reasoning_hook=degrading,
                                  justification_hook=spoil)
        # turn 1 produces a clean model and returns before degradation matters
        model = orchestrate(CANTILEVER_DOC, CONTEXT, config)
        assert len(model.nodes) == 2

    def test_monotonic_completeness_across_turns(self):
        counts: list[tuple[int, int]] = []

        def watcher(drawing, context, scale, belief):
            if belief.draft is not None:
                counts.append((len(belief.draft.nodes), len(belief.draft.elements)))
            model = default_reasoning(drawing, context, scale, belief)
            if belief.turn == 0:
                return replace(model, loads=())  # l1 finding, full geometry
            if belief.turn == 1:
                return replace(model, nodes=model.nodes[:1], elements=(),
                               boundary_conditions=model.boundary_conditions[:1],
                               loads=())  # degenerative and still unclean
            return model

        config = PerceptionConfig(max_turns=3, reasoning_hook=watcher)
        orchestrate(CANTILEVER_DOC, CONTEXT, config)
        # the degenerative turn-2 candidate was rejected: counts never decreased
        assert counts and all(c == counts[0] for c in counts)

    def test_default_reasoning_runs_one_turn(self, monkeypatch):
        calls = []
        infer = perception.infer_topology
        monkeypatch.setattr(perception, "infer_topology",
                            lambda *args: calls.append(args) or infer(*args))
        doc = json.loads(CANTILEVER_DOC)
        doc["load_arrows"][0]["magnitude"] = "nan kN"
        with pytest.raises(PerceptionFailure, match="after 1 turn;") as err:
            orchestrate(json.dumps(doc), CONTEXT, PerceptionConfig(max_turns=3))
        assert len(calls) == 1 and err.value.turns == 1
        assert [f.code for f in err.value.report.findings] == ["nonfinite-value"]

    def test_pinned_constraints_survive_every_turn(self):
        pinned_seen: list[tuple[str, ...]] = []

        def failing(drawing, context, scale, belief):
            pinned_seen.append(belief.pinned_constraints)
            model = default_reasoning(drawing, context, scale, belief)
            return replace(model, boundary_conditions=())  # never valid

        config = PerceptionConfig(max_turns=3, reasoning_hook=failing)
        with pytest.raises(PerceptionFailure) as err:
            orchestrate(CANTILEVER_DOC, CONTEXT, config)
        assert len(pinned_seen) == 3
        assert all(p == pinned_seen[0] for p in pinned_seen)
        assert any("mode: static" in c for c in pinned_seen[0])
        assert err.value.report.findings  # carries the last report

    def test_elements_reference_existing_nodes_at_acceptance(self):
        doc = json.loads(TWO_SEGMENTS_PIN)
        doc["support_glyphs"].append({"anchor": [400, 0], "kind": "roller_y"})
        doc["load_arrows"] = [{"anchor": [200, 0], "direction": [0, -1],
                               "magnitude": "2 kN"}]
        model = orchestrate(json.dumps(doc), CONTEXT)
        node_ids = {n.id for n in model.nodes}
        assert all(set(e.node_ids) <= node_ids for e in model.elements)


# --- hostile drawing documents and context text ------------------------------

PERCEPTION_ERRORS = (PerceptionError, PerceptionFailure)

_EXTREMES = (1e308, -1e308, 1.7976931348623157e308, 5e-324, -5e-324, 1e-320, 0.0, -0.0,
             math.nan, math.inf, -math.inf)
_JUNK = (None, True, False, "1e3", "0", "", [], [0], [0, 0, 0], {"a": 1}, 10 ** 400)
_MAGNITUDES = (None, "10 kN", "1e400 N", "-1e308 MN", "nan", "inf kN", "x")


@st.composite
def _drawing_docs(draw):
    """Drawing documents on a coarse pixel grid, whose numbers are replaced
    by extreme ones (1e308, 5e-324, NaN) and whose values are replaced by
    junk (wrong types, strings and booleans for numbers, an overlong
    integer) at drawn rates, and whose records now and then lose a field or
    gain an unknown one."""
    rnd = draw(st.randoms(use_true_random=True))
    junk_rate = rnd.choice([0.0, 0.0, 0.01, 0.05, 0.3])
    extreme_rate = rnd.choice([0.0, 0.05, 0.3])

    def pick(value):
        return rnd.choice(_JUNK) if rnd.random() < junk_rate else value

    def odd(value, odd_values=_EXTREMES):
        return pick(rnd.choice(odd_values) if rnd.random() < extreme_rate else value)

    def point(pool=()):
        x, y = rnd.choice(pool) if pool else (rnd.randint(-3, 3) * 100, rnd.randint(-3, 3) * 100)
        return pick([odd(x), odd(y)])

    def anchor():  # mostly on an endpoint of a structural segment
        return point(ends)

    records = {
        "segments": lambda: {"p1": point(), "p2": point(), "class": pick(rnd.choice(
            ["structural", "structural", "dimension", "annotation"]))},
        "labels": lambda: {"anchor": anchor(), "text": pick("A")},
        "support_glyphs": lambda: {"anchor": anchor(), "kind": pick(rnd.choice(
            ["pin", "roller_x", "roller_y", "fixed"]))},
        "load_arrows": lambda: {"anchor": anchor(), "direction": point(),
                                "magnitude": odd("10 kN", _MAGNITUDES)},
        "dimension_annotations": lambda: {
            "segment": odd(rnd.choice(dimensions), (-1, 0, 5)),
            "value_m": odd(rnd.choice([1.0, 2.0]), (1e308, 1e-320, 5e-324, -1.0, math.nan))},
    }
    doc = {}
    dimensions = []  # indices of the dimension-class segments
    ends = []  # endpoints of the structural ones
    for key, record in records.items():
        items = []
        count = (rnd.randrange(6) if key != "dimension_annotations"
                 else rnd.randrange(3) if dimensions else 0)
        for _ in range(count):
            rec = record()
            mutation = rnd.random()
            if mutation < 0.01:
                rec["extra"] = 1
            elif mutation < 0.02:
                del rec[rnd.choice(sorted(rec))]
            items.append(rec)
        dimensions += [i for i, rec in enumerate(items) if rec.get("class") == "dimension"]
        ends += [tuple(rec[p]) for rec in items if rec.get("class") == "structural"
                 for p in ("p1", "p2") if isinstance(rec.get(p), list) and len(rec[p]) == 2]
        if items or rnd.random() < 0.5:
            doc[key] = pick(items)
    return pick(doc)


_contexts = st.lists(st.sampled_from([
    "mode: static", "mode: modal", "mode: topology_optimization", "mode: thermal",
    "modal_count: 3", "modal_count: 99999999999999999999", "modal_count: x",
    "volfrac: 0.5", "volfrac: nan", "opt_iterations: -1", "elements: truss",
    "elements: frame", "elements: cable", "material: E=nan nu=0.3 rho=1e400",
    "section: A=0 I=-1", "section: A", "free text", "units: kN"]), max_size=5).map("\n".join)


@settings(max_examples=300, deadline=None)
@given(_drawing_docs(), _contexts)
@example({"segments": 5}, "")
@example({"segments": [{"p1": [-1.7e308, 0], "p2": [-1.6e308, 0], "class": "structural"}],
          "load_arrows": [{"anchor": [1.7e308, 0], "direction": [0, -1]}]}, "")
def test_orchestrate_raises_only_perception_errors(doc, context):
    """Any drawing document and context text, including wrong types, missing
    and unknown fields and extreme numbers, either perceive a model or raise
    one of the perception errors."""
    try:
        orchestrate(json.dumps(doc), context)
    except PERCEPTION_ERRORS:
        pass
