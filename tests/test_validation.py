"""Audit protocol: level checks, restraint rank, gating, the update gate."""

from __future__ import annotations

import ast
import math
import re
import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pair_distance_reference
from conftest import BEAM, REPO_ROOT, STEEL, modal_cantilever
from vfea.ir import (AnalysisSpec, BoundaryCondition, Element, IRModel, Load, Node,
                     Section, canonicalize)
from vfea.perception import (BeliefState, DimensionAnnotation, PrimitiveDrawing,
                             ScaleResolution, infer_scale, parse_drawing)
from vfea.validation import (BOUNDS, ZERO_LENGTH_EPS, Finding, ValidationReport, _pair_distance_within,
                             accept_update, audit, check_l1, check_l2, check_l3, check_l4,
                             connected_components, restraint_rank)


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


def head_check_l2(model: IRModel) -> list[Finding]:
    """``check_l2`` as it was before its array passes: node rows, duplicate
    keys and lengths looked up element by element."""
    out: list[Finding] = []
    rank = restraint_rank(model)
    if rank < 3:
        out.append(Finding("L2", "rigid-body-motion",
                           f"constrained dofs restrain only {rank} of 3 planar rigid modes"))
    ids = sorted(n.id for n in model.nodes)
    index = {nid: k for k, nid in enumerate(ids)}
    ends = [index[nid] for e in model.elements for nid in e.node_ids]
    labels = connected_components(len(ids), ends[0::2], ends[1::2])
    _, first = np.unique(labels, return_index=True)
    supported = np.zeros(len(first), bool)
    supported[labels[[index[b.node_id] for b in model.boundary_conditions
                      if b.node_id in index]]] = True
    for k in first[~supported].tolist():
        out.append(Finding("L2", "floating-substructure",
                           f"component containing node {ids[k]} has no supported node",
                           f"nodes/{ids[k]}"))
    seen: set[tuple[str, int, int]] = set()
    for e in model.elements:
        key = (e.kind, min(e.node_ids), max(e.node_ids))
        if key in seen:
            out.append(Finding("L2", "duplicate-element",
                               f"element {e.id} duplicates another {e.kind} between nodes "
                               f"{key[1]} and {key[2]}", f"elements/{e.id}"))
        seen.add(key)
    pos = model.node_positions()
    for e in model.elements:
        (x1, y1), (x2, y2) = pos[e.node_ids[0]], pos[e.node_ids[1]]
        if math.hypot(x2 - x1, y2 - y1) < ZERO_LENGTH_EPS:
            out.append(Finding("L2", "zero-length-element",
                               f"element {e.id} has zero length", f"elements/{e.id}"))
    return out


def _ulps_from(value: float, steps: int) -> float:
    for _ in range(abs(steps)):
        value = math.nextafter(value, math.copysign(math.inf, steps))
    return value


# offsets near the zero-length bound: along an axis or a diagonal, a few
# ulps either side, and two where np.hypot and math.hypot fall on either
# side of it (9.999999999999998e-13 and 1e-12, each way round)
_EPS_OFFSETS = st.one_of(
    st.builds(lambda scale, steps, diagonal: (
        (_ulps_from(scale * ZERO_LENGTH_EPS / math.sqrt(2), steps),) * 2 if diagonal
        else (_ulps_from(scale * ZERO_LENGTH_EPS, steps), 0.0)),
        st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0]), st.integers(-2, 2), st.booleans()),
    st.sampled_from([(2.353168015809764e-13, 9.719187223701883e-13),
                     (1.0591977897210854e-13, 9.943746780879426e-13)]))


@st.composite
def l2_models(draw) -> IRModel:
    """Models whose elements and supports name existing nodes: shuffled
    unique ids, some beyond int64; nodes placed within an ulp or two of the
    zero-length bound of another, or far out; self-loops, and repeated and
    reversed elements of either kind; supports on some components only."""
    n = draw(st.integers(1, 9))
    ids = draw(st.lists(st.one_of(st.integers(1, 30),
                                  st.sampled_from([2**63 - 1, 2**63, 2**64 + 7, 10**30])),
                        min_size=n, max_size=n, unique=True))
    coords: list[tuple[float, float]] = [(0.0, 0.0)] if draw(st.booleans()) else []
    while len(coords) < n:
        if coords and draw(st.booleans()):
            x, y = draw(st.sampled_from(coords))
            dx, dy = draw(_EPS_OFFSETS)
            coords.append((x + dx, y + dy))
        else:
            coords.append(draw(st.tuples(*[st.one_of(st.integers(-3, 3).map(float),
                                                     st.sampled_from([1e-12, 1.7e308, -1.7e308]),
                                                     st.floats(-1e3, 1e3))] * 2)))
    nodes = tuple(Node(i, x, y) for i, (x, y) in zip(ids, coords))
    pairs = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=10))
    if pairs:  # some again, in either order
        pairs += [draw(st.permutations(p))
                  for p in draw(st.lists(st.sampled_from(pairs), max_size=3))]
    kinds = st.sampled_from(["truss_bar", "frame_beam"])
    elements = tuple(Element(k + 1, draw(kinds), tuple(p), 1) for k, p in enumerate(pairs))
    supported = draw(st.lists(st.sampled_from(ids), max_size=3, unique=True))
    bcs = tuple(BoundaryCondition(i, frozenset(draw(st.sets(st.sampled_from(["ux", "uy", "rz"]),
                                                            min_size=1))))
                for i in supported)
    return IRModel(nodes=tuple(draw(st.permutations(nodes))), elements=elements,
                   materials=(STEEL,), sections=(BEAM,), boundary_conditions=bcs)


@settings(max_examples=400, deadline=None)
@given(l2_models())
def test_l2_equals_its_previous_algorithm(model):
    assert check_l2(model) == head_check_l2(model)


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


@st.composite
def _bands(draw):
    """Point sets of up to 80 rows, on a coarse grid for many equal
    distances, with duplicate rows and NaN, infinite and huge coordinates;
    and bands whose ends lie on a pair distance, a few ulps beside one, or
    anywhere (negative, NaN and infinite ends included)."""
    grid = st.integers(-3, 3).map(float)
    odd = st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, 0.5])
    coord = st.one_of(grid, grid, grid, odd, st.floats(-1e3, 1e3))
    xy = draw(st.lists(st.tuples(coord, coord), max_size=80))
    if xy:
        xy += draw(st.lists(st.sampled_from(xy), max_size=5))  # duplicates
    xy = np.array(draw(st.permutations(xy)), float).reshape(-1, 2)

    def end():
        if len(xy) >= 2 and draw(st.booleans()):
            a, b = draw(st.permutations(range(len(xy))))[:2]
            with np.errstate(all="ignore"):
                d = math.hypot(xy[b, 0] - xy[a, 0], xy[b, 1] - xy[a, 1])
            for _ in range(draw(st.integers(0, 2))):
                d = math.nextafter(d, draw(st.sampled_from([-math.inf, math.inf])))
            return d
        return draw(st.one_of(st.floats(), st.sampled_from([0.0, 1.0, 2.0, math.sqrt(2)])))

    lo, hi = end(), end()
    if draw(st.booleans()):
        lo, hi = min(lo, hi), max(lo, hi)
    return xy, lo, hi


@settings(max_examples=500, deadline=None)
@given(_bands())
# the one pair in the band is two late rows at an overflowing distance
@example((np.array([(0.0, 0.0)] * 16 + [(1e308, 0.0), (-1e308, 0.0)]), 1.5e308, math.inf))
def test_band_search_gives_the_row_scans_answer(inputs):
    xy, lo, hi = inputs
    with np.errstate(all="ignore"):
        want = pair_distance_reference._pair_distance_within(
            xy[:, 0].copy(), xy[:, 1].copy(), lo, hi)
    assert _pair_distance_within(xy[:, 0].copy(), xy[:, 1].copy(), lo, hi) == want


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


# --- the finding catalogue, docs/findings.md ---------------------------------


def _documented_codes() -> dict[str, dict[str, str]]:
    """Each level's table in docs/findings.md: its codes and their second column."""
    doc = (REPO_ROOT / "docs" / "findings.md").read_text(encoding="utf-8")
    return {level: dict(re.findall(r"^\| `([a-z-]+)` \| (.*) \|$", body, re.M))
            for level, body in re.findall(r"^## (L\d) [^\n]*\n(.*?)(?=^## |\Z)", doc,
                                          re.M | re.S)}


def _raised_codes() -> dict[str, set[str]]:
    """The code literals of validation.py's ``Finding("Ln", code, ...)`` calls
    and of ``check_l1``'s ``f(code, ...)`` calls, by level."""
    tree = ast.parse((REPO_ROOT / "src" / "vfea" / "validation.py").read_text(encoding="utf-8"))

    def calls(scope: ast.AST, name: str) -> list[ast.Call]:
        return [node for node in ast.walk(scope) if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name) and node.func.id == name]

    (l1,) = [node for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef) and node.name == "check_l1"]
    out: dict[str, set[str]] = {"L1": {call.args[0].value for call in calls(l1, "f")}}
    for call in calls(tree, "Finding"):
        level, code = call.args[:2]
        if isinstance(code, ast.Constant):
            out.setdefault(level.value, set()).add(code.value)
    return out


def test_the_catalogue_lists_exactly_the_codes_each_level_raises():
    raised = _raised_codes()
    # the L3 codes are the table's, raised through one Finding call
    raised["L3"] = {b.code for b in BOUNDS}
    assert {level: set(rows) for level, rows in _documented_codes().items()} == raised
    assert sorted(raised) == ["L1", "L2", "L3", "L4"] and len(raised["L1"]) >= 10


def test_the_documented_l3_intervals_are_the_table_s():
    documented = {code: re.search(r"[\[(][^\])]*[\])]", bounds).group()
                  for code, bounds in _documented_codes()["L3"].items()}
    assert documented == {b.code: b.interval for b in BOUNDS}
