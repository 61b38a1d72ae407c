"""Drawing parsing, scale resolution, topology clustering, semantics, and
the orchestration loop with scripted reasoning hooks."""

from __future__ import annotations

import json
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SUITE_DIR
from vfea.harness import load_case
from vfea.ir import IRModel, serialize
from vfea.perception import (DegenerateElementError,
                             DrawingParseError, PerceptionConfig,
                             PerceptionFailure, PrimitiveDrawing,
                             ScaleConflictError, Segment, SemanticsError,
                             attach_semantics, default_reasoning, infer_scale,
                             infer_topology, orchestrate, parse_drawing,
                             parse_magnitude)
from vfea.validation import audit, connected_components

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
        with pytest.raises(DrawingParseError) as err:
            parse_drawing(json.dumps(doc))
        assert "out of range" in str(err.value)

    def test_annotation_must_reference_dimension_segment(self):
        doc = json.loads(CANTILEVER_DOC)
        doc["dimension_annotations"][0]["segment"] = 0  # structural
        with pytest.raises(DrawingParseError):
            parse_drawing(json.dumps(doc))

    def test_direction_normalized_on_parse(self):
        doc = json.loads(CANTILEVER_DOC)
        doc["load_arrows"][0]["direction"] = [3, -4]
        d = parse_drawing(json.dumps(doc))
        assert d.load_arrows[0].direction == pytest.approx((0.6, -0.8))

    def test_malformed_syntax(self):
        with pytest.raises(DrawingParseError):
            parse_drawing("{segments")

    def test_unknown_class(self):
        with pytest.raises(DrawingParseError):
            parse_drawing('{"segments": [{"p1": [0,0], "p2": [1,1], "class": "wall"}]}')


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

    def test_conflicting_annotations_raise(self):
        doc = json.loads(CANTILEVER_DOC)
        doc["segments"].append({"p1": [0, -80], "p2": [100, -80], "class": "dimension"})
        doc["dimension_annotations"].append({"segment": 2, "value_m": 1.5})
        with pytest.raises(ScaleConflictError) as err:
            infer_scale(parse_drawing(json.dumps(doc)))
        assert len(err.value.scales) == 2


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
        with pytest.raises(DegenerateElementError):
            infer_topology(parse_drawing(json.dumps(doc)), 3.0)

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


def naive_topology(drawing: PrimitiveDrawing, tol: float):
    """All-pairs reference for ``infer_topology``."""
    structural = [s for s in drawing.segments if s.stroke_class == "structural"]
    points = [p for s in structural for p in (s.p1, s.p2)]
    links = [(i, j) for i in range(len(points)) for j in range(i + 1, len(points))
             if math.dist(points[i], points[j]) <= tol]
    centroids = sorted(((sum(points[i][0] for i in m) / len(m),
                         sum(points[i][1] for i in m) / len(m), m)
                        for m in connected_components(range(len(points)), links)),
                       key=lambda c: (c[0], c[1]))
    node_of = {i: nid for nid, (_, _, m) in enumerate(centroids, start=1) for i in m}
    elements = tuple((k + 1, node_of[2 * k], node_of[2 * k + 1]) for k in range(len(structural)))
    if any(a == b for _, a, b in elements):
        raise DegenerateElementError("collapsed segment")
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
    except DegenerateElementError:
        with pytest.raises(DegenerateElementError):
            infer_topology(drawing, tol)
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


class TestMagnitude:
    @pytest.mark.parametrize("label,newtons", [
        ("10 kN", 10_000.0), ("500 N", 500.0), ("1.5kN", 1500.0),
        ("2 MN", 2e6), ("250", 250.0),
    ])
    def test_units(self, label, newtons):
        assert parse_magnitude(label) == pytest.approx(newtons)

    def test_unparsable(self):
        with pytest.raises(SemanticsError):
            parse_magnitude("ten kN")


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

    def test_glyph_too_far_from_any_node(self):
        doc = json.loads(CANTILEVER_DOC)
        doc["support_glyphs"][0]["anchor"] = [50, 50]
        with pytest.raises(SemanticsError):
            self.build(json.dumps(doc))

    def test_unparsable_arrow_magnitude(self):
        doc = json.loads(CANTILEVER_DOC)
        doc["load_arrows"][0]["magnitude"] = "lots"
        with pytest.raises(SemanticsError):
            self.build(json.dumps(doc))


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
