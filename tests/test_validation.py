"""Audit protocol: level checks, restraint rank, gating, the update gate."""

from __future__ import annotations

import math
import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BEAM, STEEL, modal_cantilever
from vfea.ir import (AnalysisSpec, BoundaryCondition, Element, IRModel, Load, Node,
                     Section, canonicalize)
from vfea.perception import (BeliefState, DimensionAnnotation, PrimitiveDrawing,
                             ScaleResolution, infer_scale, parse_drawing)
from vfea.validation import (ValidationReport, accept_update, audit,
                             check_l1, check_l2, check_l3, check_l4, connected_components,
                             restraint_rank, serialize_report)


def bc_model(constraints: list[tuple[float, float, str]]) -> IRModel:
    """Minimal model carrying the given (x, y, dofs) constraint pattern."""
    nodes = []
    bcs = []
    for i, (x, y, dofs) in enumerate(constraints, start=1):
        nodes.append(Node(i, x, y))
        bcs.append(BoundaryCondition(i, frozenset(dofs.split(","))))
    while len(nodes) < 2:
        nodes.append(Node(len(nodes) + 1, 7.0, 7.0))
    elems = tuple(Element(i, "frame_beam", (i, i + 1), 1) for i in range(1, len(nodes)))
    return IRModel(nodes=tuple(nodes), elements=elems, materials=(STEEL,), sections=(BEAM,),
                   boundary_conditions=tuple(bcs), loads=(Load(1, 1.0, 0.0, 0.0),))


def codes(findings) -> set[str]:
    return {f.code for f in findings}


class TestL1:
    def test_clean_model(self, truss):
        assert check_l1(truss) == []

    def test_dangling_node_reference(self, truss):
        broken = replace(truss, elements=truss.elements + (
            Element(3, "truss_bar", (1, 99), 1),))
        assert "dangling-ref" in codes(check_l1(broken))

    def test_empty_node_array(self, truss):
        assert "empty-array" in codes(check_l1(replace(truss, nodes=())))

    def test_modal_mode_allows_empty_loads(self):
        from conftest import modal_cantilever
        assert check_l1(modal_cantilever()) == []

    def test_zero_load_flagged(self, truss):
        bad = replace(truss, loads=(Load(3, 0.0, 0.0, 0.0),))
        assert "zero-load" in codes(check_l1(bad))

    def test_missing_modal_count(self, truss):
        from vfea.ir import AnalysisSpec
        bad = replace(truss, analysis=AnalysisSpec(mode="modal"))
        assert "mode-params" in codes(check_l1(bad))

    def test_frame_without_inertia(self, cantilever):
        bad = replace(cantilever, sections=(Section(1, 1, 1e-2, None),))
        assert "missing-inertia" in codes(check_l1(bad))

    @pytest.mark.parametrize("value", [0.0, -0.0, -0.01, -math.inf])
    def test_nonpositive_area_or_modulus(self, cantilever, value):
        sections = (replace(BEAM, area=value),)
        materials = (replace(STEEL, youngs_modulus=value * 2.1e13),)
        for bad in (replace(cantilever, sections=sections),
                    replace(cantilever, materials=materials)):
            # an infinite value is reported once, as non-finite
            expected = "nonfinite-value" if math.isinf(value) else "nonpositive-stiffness"
            assert codes(check_l1(bad)) == {expected}

    @pytest.mark.parametrize("density", [0.0, -0.0, -7850.0])
    def test_nonpositive_density_in_modal_mode(self, density):
        bad = replace(modal_cantilever(), materials=(replace(STEEL, density=density),))
        assert codes(check_l1(bad)) == {"nonpositive-mass"}
        # statics and topology optimisation build no mass matrix
        static = replace(bad, analysis=AnalysisSpec(), loads=(Load(2, 0.0, -1.0, 0.0),))
        assert check_l1(static) == []

    def test_normalized_bounds(self, truss):
        bad = replace(truss, coordinate_mode="normalized")
        assert "normalized-bounds" in codes(check_l1(bad))  # spans 2 m


class TestRestraintRank:
    def test_no_bcs_rank_zero(self):
        assert restraint_rank(bc_model([])) == 0

    def test_pin_plus_roller(self):
        # rows {(1,0,0),(0,1,0),(0,1,4)}: full rank by hand elimination
        m = bc_model([(0.0, 0.0, "ux,uy"), (4.0, 0.0, "uy")])
        assert restraint_rank(m) == 3

    def test_two_parallel_rollers_leave_horizontal_mode(self):
        # rows {(0,1,0),(0,1,4)}: rank 2
        m = bc_model([(0.0, 0.0, "uy"), (4.0, 0.0, "uy")])
        assert restraint_rank(m) == 2

    def test_collinear_vertical_restraints_rank_two(self):
        # dof counting would say 3; the rank test sees the shared rigid mode
        m = bc_model([(0.0, 0.0, "uy"), (2.0, 0.0, "uy"), (4.0, 0.0, "uy")])
        assert restraint_rank(m) == 2

    def test_translation_invariance(self):
        rng = random.Random(7)
        for _ in range(25):
            pattern = [(rng.uniform(-3, 3), rng.uniform(-3, 3),
                        rng.choice(["ux", "uy", "rz", "ux,uy", "ux,uy,rz"]))
                       for _ in range(rng.randint(1, 4))]
            base = restraint_rank(bc_model(pattern))
            dx, dy = rng.uniform(-10, 10), rng.uniform(-10, 10)
            moved = [(x + dx, y + dy, d) for x, y, d in pattern]
            assert restraint_rank(bc_model(moved)) == base

    def test_rotation_invariance_for_isotropic_constraints(self):
        # pins/fixed/rz constraints see the same rank under any rigid rotation;
        # single-direction rollers genuinely change behavior when rotated, so
        # they are excluded here
        rng = random.Random(11)
        for _ in range(25):
            pattern = [(rng.uniform(-3, 3), rng.uniform(-3, 3),
                        rng.choice(["ux,uy", "ux,uy,rz", "rz"]))
                       for _ in range(rng.randint(1, 3))]
            base = restraint_rank(bc_model(pattern))
            theta = rng.uniform(0, 2 * math.pi)
            c, s = math.cos(theta), math.sin(theta)
            rotated = [(c * x - s * y, s * x + c * y, d) for x, y, d in pattern]
            assert restraint_rank(bc_model(rotated)) == base


def oracle_rank(model: IRModel) -> int:
    """Independent brute force: largest r with a nonzero r x r minor,
    evaluated in exact rational arithmetic."""
    pos = model.node_positions()
    rows = []
    for bc in model.boundary_conditions:
        x, y = pos[bc.node_id]
        for dof in bc.sorted_dofs():
            if dof == "ux":
                rows.append((Fraction(1), Fraction(0), -Fraction(y)))
            elif dof == "uy":
                rows.append((Fraction(0), Fraction(1), Fraction(x)))
            else:
                rows.append((Fraction(0), Fraction(0), Fraction(1)))

    def det(rs, cs):
        sub = [[rows[r][c] for c in cs] for r in rs]
        if len(rs) == 1:
            return sub[0][0]
        if len(rs) == 2:
            return sub[0][0] * sub[1][1] - sub[0][1] * sub[1][0]
        return (sub[0][0] * (sub[1][1] * sub[2][2] - sub[1][2] * sub[2][1])
                - sub[0][1] * (sub[1][0] * sub[2][2] - sub[1][2] * sub[2][0])
                + sub[0][2] * (sub[1][0] * sub[2][1] - sub[1][1] * sub[2][0]))

    best = 0
    for r in (1, 2, 3):
        if r > len(rows):
            break
        if any(det(rs, cs) != 0
               for rs in combinations(range(len(rows)), r)
               for cs in combinations(range(3), r)):
            best = r
    return best


def test_rank_matches_brute_force_oracle_on_random_configurations():
    rng = random.Random(2024)
    agreements = 0
    for _ in range(200):
        pattern = [(rng.uniform(-5, 5), rng.uniform(-5, 5),
                    rng.choice(["ux", "uy", "rz", "ux,uy", "ux,rz", "uy,rz", "ux,uy,rz"]))
                   for _ in range(rng.randint(0, 5))]
        m = bc_model(pattern)
        assert restraint_rank(m) == oracle_rank(m)
        agreements += 1
    assert agreements == 200


class TestL2:
    def test_cantilever_clean(self, cantilever):
        assert check_l2(cantilever) == []

    def test_single_pin_leaves_rotation_free(self):
        m = canonicalize(IRModel(
            nodes=(Node(1, 0.0, 0.0), Node(2, 2.0, 0.0)),
            elements=(Element(1, "frame_beam", (1, 2), 1),),
            materials=(STEEL,), sections=(BEAM,),
            boundary_conditions=(BoundaryCondition(1, frozenset({"ux", "uy"})),),
            loads=(Load(2, 0.0, -1.0, 0.0),)))
        assert restraint_rank(m) == 2
        assert "rigid-body-motion" in codes(check_l2(m))

    def test_floating_substructure(self, truss):
        # second triangle with no support: graph-component brute force
        extra_nodes = (Node(10, 10.0, 0.0), Node(11, 12.0, 0.0), Node(12, 11.0, 1.0))
        extra_elems = (Element(10, "truss_bar", (10, 11), 1),
                       Element(11, "truss_bar", (11, 12), 1),
                       Element(12, "truss_bar", (10, 12), 1))
        m = canonicalize(replace(truss, nodes=truss.nodes + extra_nodes,
                                 elements=truss.elements + extra_elems))
        found = [f for f in check_l2(m) if f.code == "floating-substructure"]
        assert len(found) == 1 and found[0].subject == "nodes/10"

    def test_floating_substructures_in_ascending_node_order(self, truss):
        # two unsupported bars, listed with the higher ids first
        extra_nodes = (Node(30, 30.0, 0.0), Node(31, 31.0, 0.0),
                       Node(20, 20.0, 0.0), Node(21, 21.0, 0.0))
        extra_elems = (Element(30, "truss_bar", (31, 30), 1),
                       Element(20, "truss_bar", (21, 20), 1))
        m = replace(truss, nodes=extra_nodes + truss.nodes,
                    elements=extra_elems + truss.elements)
        found = [f.subject for f in check_l2(m) if f.code == "floating-substructure"]
        assert found == ["nodes/20", "nodes/30"]

    def test_components_numbered_by_first_member(self):
        assert connected_components(6, [4, 5, 3], [5, 1, 0]).tolist() == [0, 1, 2, 0, 1, 1]
        assert connected_components(3, [], []).tolist() == [0, 1, 2]
        assert connected_components(0, [], []).tolist() == []

    def test_duplicate_element(self, truss):
        m = replace(truss, elements=truss.elements + (
            Element(3, "truss_bar", (3, 1), 1),))
        assert "duplicate-element" in codes(check_l2(canonicalize(m)))

    def test_zero_length_element(self, truss):
        m = replace(truss, nodes=truss.nodes + (Node(4, 1.0, 1.0),),
                    elements=truss.elements + (Element(3, "truss_bar", (3, 4), 1),))
        assert "zero-length-element" in codes(check_l2(canonicalize(m)))


class TestL3:
    def test_negative_poisson(self, truss):
        bad = replace(truss, materials=(replace(STEEL, poisson_ratio=-0.1),))
        assert codes(check_l3(bad)) == {"poisson-range"}

    def test_steel_inside_ranges(self, truss):
        assert check_l3(truss) == []

    def test_unrealistic_modulus(self, truss):
        bad = replace(truss, materials=(replace(STEEL, youngs_modulus=5e13),))
        assert codes(check_l3(bad)) == {"modulus-range"}

    @pytest.mark.parametrize("field,value,code", [
        ("density", -1.0, "density-range"),
        ("density", 9e4, "density-range"),
    ])
    def test_density_bounds(self, truss, field, value, code):
        bad = replace(truss, materials=(replace(STEEL, **{field: value}),))
        assert code in codes(check_l3(bad))

    def test_area_and_inertia_bounds(self, cantilever):
        bad = replace(cantilever, sections=(Section(1, 1, 50.0, 20.0),))
        assert codes(check_l3(bad)) == {"area-range", "inertia-range"}


DRAWING_2M = """
{"segments": [{"p1": [0, 0], "p2": [200, 0], "class": "structural"},
              {"p1": [0, -40], "p2": [200, -40], "class": "dimension"}],
 "support_glyphs": [{"anchor": [0, 0], "kind": "fixed"}],
 "load_arrows": [{"anchor": [200, 0], "direction": [0, -1], "magnitude": "1 kN"}],
 "dimension_annotations": [{"segment": 1, "value_m": 2.0}]}
"""


class TestL4:
    def test_matching_dimension_passes(self, cantilever):
        drawing = parse_drawing(DRAWING_2M)
        scale = infer_scale(drawing)
        assert check_l4(cantilever, drawing, scale) == []

    def test_unrepresented_dimension(self, cantilever):
        doc = DRAWING_2M.replace('"value_m": 2.0', '"value_m": 3.0')
        drawing = parse_drawing(doc)
        scale = infer_scale(drawing)
        # exhaustive pair scan: the only node distance is 2.0 m, not ~3.0 m
        findings = check_l4(cantilever, drawing, scale)
        assert codes(findings) == {"unrepresented-dimension"}

    def test_no_annotations_vacuous(self, cantilever):
        drawing = parse_drawing('{"segments": []}')
        scale = infer_scale(drawing)
        assert scale.mode == "normalized"
        assert check_l4(cantilever, drawing, scale) == []

    def test_invariant_under_uniform_rescaling(self, cantilever):
        drawing = parse_drawing(DRAWING_2M)
        scale = infer_scale(drawing)
        base = check_l4(cantilever, drawing, scale)
        for factor in (0.5, 2.0, 8.0):
            scaled_model = replace(cantilever, nodes=tuple(
                replace(n, x=n.x * factor, y=n.y * factor) for n in cantilever.nodes))
            doc = DRAWING_2M.replace('"value_m": 2.0', f'"value_m": {2.0 * factor}')
            d2 = parse_drawing(doc)
            assert len(check_l4(scaled_model, d2, infer_scale(d2))) == len(base)


def _l4_reference(coords, lo, hi) -> bool:
    """The all-pairs L4 predicate: some node pair distance in [lo, hi]."""
    return any(lo <= math.hypot(bx - ax, by - ay) <= hi
               for k, (ax, ay) in enumerate(coords) for bx, by in coords[k + 1:])


_COORD = st.one_of(st.integers(-4, 4).map(float), st.sampled_from([0.5, 1e-3, 1 / 3, 0.1]),
                   st.floats(-1e3, 1e3), st.floats(), st.sampled_from([math.inf, math.nan]))


@st.composite
def _l4_inputs(draw):
    """Node sets with duplicate points and collinear runs, and dimensions
    placed on, or a few ulps beside, a pair distance or the band's edges."""
    coords = draw(st.lists(st.tuples(_COORD, _COORD), max_size=7))
    if draw(st.booleans()):  # a collinear run through (x0, y0) along (dx, dy)
        x0, y0, dx, dy = (draw(_COORD) for _ in range(4))
        coords += [(x0 + t * dx, y0 + t * dy) for t in draw(st.lists(st.integers(-3, 5),
                                                                      max_size=6))]
    if coords:
        coords += draw(st.lists(st.sampled_from(coords), max_size=3))  # duplicates
    coords = draw(st.permutations(coords))
    tolerance = draw(st.sampled_from([0.0, 0.02, 0.1]))
    if len(coords) >= 2 and draw(st.booleans()):
        (ax, ay), (bx, by) = draw(st.permutations(coords))[:2]
        d = math.hypot(bx - ax, by - ay)
        value = draw(st.sampled_from([d, d / (1 - tolerance), d / (1 + tolerance)]))
        toward = draw(st.sampled_from([-math.inf, math.inf]))
        for _ in range(draw(st.integers(0, 2))):
            value = math.nextafter(value, toward)
    else:
        value = draw(st.floats())
    return coords, value, tolerance


@settings(max_examples=400, deadline=None)
@given(_l4_inputs())
def test_l4_matches_all_pairs_reference(inputs):
    coords, value, tolerance = inputs
    model = IRModel(nodes=tuple(Node(i + 1, x, y) for i, (x, y) in enumerate(coords)))
    drawing = PrimitiveDrawing(dimension_annotations=(DimensionAnnotation(0, value),))
    findings = check_l4(model, drawing, ScaleResolution("metric", 1.0, 0.0), tolerance)
    realized = _l4_reference(coords, value * (1 - tolerance), value * (1 + tolerance))
    assert (findings == []) == realized


def test_l4_exact_boundary_distances():
    # a dimension equal to a pair's distance, with no tolerance, is realized
    # however that distance rounds; one ulp beside it is not
    rng = random.Random(5)
    scale = ScaleResolution("metric", 1.0, 0.0)
    for _ in range(200):
        coords = [(rng.uniform(-9, 9), rng.uniform(-9, 9)) for _ in range(2)]
        model = IRModel(nodes=tuple(Node(i + 1, x, y) for i, (x, y) in enumerate(coords)))
        (ax, ay), (bx, by) = coords
        d = math.hypot(bx - ax, by - ay)
        for value, realized in ((d, True), (math.nextafter(d, 0), False),
                                (math.nextafter(d, math.inf), False)):
            drawing = PrimitiveDrawing(dimension_annotations=(DimensionAnnotation(0, value),))
            assert (check_l4(model, drawing, scale, 0.0) == []) == realized


class TestAudit:
    def test_l1_failure_gates_higher_levels(self, truss):
        bad = replace(truss, nodes=(), materials=(replace(STEEL, poisson_ratio=-0.1),))
        report = audit(bad)
        assert report.findings and all(f.level == "L1" for f in report.findings)

    def test_clean_model_with_drawing(self, cantilever):
        drawing = parse_drawing(DRAWING_2M)
        report = audit(cantilever, drawing, infer_scale(drawing))
        assert report.clean

    def test_single_l3_finding(self, truss):
        bad = replace(truss, materials=(replace(STEEL, poisson_ratio=-0.1),))
        report = audit(bad)
        assert [f.level for f in report.findings] == ["L3"]

    def test_pure_function(self, truss):
        assert audit(truss) == audit(truss)

    def test_report_serialization(self, truss):
        import json
        bad = replace(truss, materials=(replace(STEEL, poisson_ratio=-0.1),))
        doc = json.loads(serialize_report(audit(bad)))
        assert doc["clean"] is False
        assert doc["findings"][0]["code"] == "poisson-range"
        assert serialize_report(audit(bad)) == serialize_report(audit(bad))


class TestAcceptUpdate:
    def belief(self, draft):
        return BeliefState(draft=draft, pinned_constraints=(), findings=None, turn=1)

    def test_addition_accepted(self, truss):
        grown = canonicalize(replace(truss, loads=truss.loads + (Load(1, 5.0, 0.0, 0.0),)))
        decision = accept_update(self.belief(truss), grown, ValidationReport())
        assert decision.accepted

    def test_unjustified_removal_rejected(self, truss):
        shrunk = canonicalize(IRModel(
            nodes=truss.nodes[2:], elements=(), materials=truss.materials,
            sections=truss.sections, boundary_conditions=(), loads=truss.loads))
        decision = accept_update(self.belief(truss), shrunk, ValidationReport())
        assert not decision.accepted
        assert "removal" in decision.reason

    def test_justified_removal_accepted(self, truss):
        shrunk = canonicalize(IRModel(
            nodes=truss.nodes[2:], elements=(), materials=truss.materials,
            sections=truss.sections, boundary_conditions=(), loads=truss.loads))
        report = ValidationReport(justification="merging duplicate nodes")
        assert accept_update(self.belief(truss), shrunk, report).accepted

    def test_first_draft_always_accepted(self, truss):
        assert accept_update(self.belief(None), truss, ValidationReport()).accepted
