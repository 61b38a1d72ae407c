"""IR core: canonical form, diffing, schema round-trips."""

from __future__ import annotations

import copy
import json
import math
import os
import random
import re
import subprocess
import sys
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pairs_within_reference
import readers_reference
from conftest import REPO_ROOT, SUITE_DIR, random_frame_model
from vfea import ir, perception, sandbox
from vfea.ir import (AnalysisSpec, CanonicalizationError, Element, IRModel,
                     Load, Node, SchemaParseError, _Defect, _distances, _read_json, bounding_box,
                     canonicalize, deserialize, diff, pairs_within, serialize)


def shuffled(model: IRModel) -> IRModel:
    return replace(model, nodes=tuple(reversed(model.nodes)),
                   elements=tuple(reversed(model.elements)))


class TestCanonicalize:
    def test_sorts_nodes_by_id(self, truss):
        out = canonicalize(shuffled(truss))
        assert [n.id for n in out.nodes] == [1, 2, 3]
        assert out == truss

    def test_idempotent(self, truss):
        assert canonicalize(canonicalize(truss)) == canonicalize(truss)

    def test_serialization_stable_on_canonical_model(self, truss):
        assert serialize(canonicalize(truss)) == serialize(truss)

    def test_element_pair_stored_ascending(self, truss):
        flipped = replace(truss, elements=(
            replace(truss.elements[0], node_ids=(5, 2)),) + truss.elements[1:])
        flipped = replace(flipped, nodes=flipped.nodes + (Node(5, 9.0, 9.0),))
        out = canonicalize(flipped)
        assert out.elements[0].node_ids == (2, 5)

    def test_dangling_reference_rejected(self, truss):
        broken = replace(truss, elements=truss.elements + (
            Element(3, "truss_bar", (1, 99), 1),))
        with pytest.raises(CanonicalizationError):
            canonicalize(broken)


class TestDiff:
    def test_identity_is_empty_and_nondegenerative(self, truss):
        change = diff(truss, truss)
        assert change.empty
        assert not change.degenerative

    def test_single_addition(self, truss):
        grown = canonicalize(replace(truss, nodes=truss.nodes + (Node(4, 5.0, 5.0),)))
        change = diff(truss, grown)
        assert change.added["nodes"] == (4,)
        assert not change.degenerative

    def test_node_removal_is_degenerative(self, truss):
        # set-difference oracle over the id sets
        kept = truss.nodes[:1]
        shrunk = IRModel(nodes=kept, elements=(), materials=truss.materials,
                         sections=truss.sections, boundary_conditions=(), loads=())
        change = diff(truss, canonicalize(shrunk))
        old_ids = {n.id for n in truss.nodes}
        new_ids = {n.id for n in shrunk.nodes}
        assert set(change.removed["nodes"]) == old_ids - new_ids
        assert len(change.removed["nodes"]) == 2
        assert change.degenerative

    def test_modification_not_degenerative(self, truss):
        moved = canonicalize(replace(truss, nodes=(
            replace(truss.nodes[0], x=0.25),) + truss.nodes[1:]))
        change = diff(truss, moved)
        assert change.modified["nodes"] == (1,)
        assert not change.degenerative


class TestSchema:
    def test_round_trip(self, truss):
        assert deserialize(serialize(truss)) == truss

    def test_bad_float_reports_path(self, truss):
        text = serialize(truss).replace('"area": 0.01', '"area": "abc"')
        with pytest.raises(SchemaParseError) as err:
            deserialize(text)
        assert "sections[0].area" in str(err.value)

    def test_empty_node_array_parses(self, truss):
        text = serialize(replace(truss, nodes=(), elements=(),
                                 boundary_conditions=(), loads=()))
        model = deserialize(text)
        assert model.nodes == ()

    def test_unknown_field_rejected(self, truss):
        text = serialize(truss).replace('"provenance"', '"provenqnce"')
        with pytest.raises(SchemaParseError):
            deserialize(text)

    def test_syntax_error_rejected(self):
        with pytest.raises(SchemaParseError):
            deserialize("{nodes: [")

    def test_missing_required_field(self):
        with pytest.raises(SchemaParseError) as err:
            deserialize('{"nodes": []}')
        assert "missing required field" in str(err.value)

    def test_analysis_params_round_trip(self, topopt_model):
        assert deserialize(serialize(topopt_model)) == topopt_model
        modal = replace(topopt_model, analysis=AnalysisSpec(mode="modal", modal_count=4))
        assert deserialize(serialize(modal)).analysis.modal_count == 4


# Every field of the document present once, optional ones included.
FULL_DOC = {
    "nodes": [{"id": 1, "x": 0.0, "y": 0.0}, {"id": 2, "x": 2.0, "y": 0.0}],
    "elements": [{"id": 1, "kind": "frame_beam", "nodes": [1, 2], "section": 1}],
    "materials": [{"id": 1, "youngs_modulus": 210e9, "poisson_ratio": 0.3, "density": 7850.0}],
    "sections": [{"id": 1, "material": 1, "area": 0.01, "moment_of_inertia": 1e-6}],
    "bcs": [{"node": 1, "dofs": ["ux", "uy", "rz"]}],
    "loads": [{"node": 2, "fx": 0.0, "fy": -1000.0, "mz": 0.0}],
    "analysis": {"mode": "topology_optimization", "modal_count": 3, "volfrac": 0.4,
                 "max_iterations": 20},
    "coordinate_mode": "metric",
    "provenance": "hand-written",
}
DELETE = object()


def with_defect(path: str, value) -> str:
    """FULL_DOC with the value at ``path`` replaced, or removed for DELETE."""
    doc = copy.deepcopy(FULL_DOC)
    steps = [int(i) if i else k for k, i in re.findall(r"\.(\w+)|\[(\d+)\]", path)]
    if not steps:
        return json.dumps(value)
    parent = doc
    for step in steps[:-1]:
        parent = parent[step]
    if value is DELETE:
        del parent[steps[-1]]
    else:
        parent[steps[-1]] = value
    return json.dumps(doc)


MISSING = [f"$.{k}" for k in ("nodes", "elements", "materials", "sections", "bcs", "loads",
                              "analysis", "coordinate_mode")] + [
    "$.nodes[0].id", "$.nodes[0].x", "$.nodes[0].y",
    "$.elements[0].id", "$.elements[0].kind", "$.elements[0].nodes", "$.elements[0].section",
    "$.materials[0].id", "$.materials[0].youngs_modulus", "$.materials[0].poisson_ratio",
    "$.materials[0].density", "$.sections[0].id", "$.sections[0].material",
    "$.sections[0].area", "$.bcs[0].node", "$.bcs[0].dofs", "$.loads[0].node",
    "$.loads[0].fx", "$.loads[0].fy", "$.loads[0].mz", "$.analysis.mode"]
DOFS = "('ux', 'uy', 'rz')"
# (path, value put there, reason): each document has this one defect, and
# the error names its path
DEFECTS = [(p, DELETE, "missing required field") for p in MISSING] + [
    ("$", [], "expected object, got list"),
    ("$.nodes", {}, "expected array, got dict"),
    ("$.elements", 3, "expected array, got int"),
    ("$.materials", "x", "expected array, got str"),
    ("$.sections", None, "expected array, got NoneType"),
    ("$.bcs", True, "expected array, got bool"),
    ("$.loads", 1.5, "expected array, got float"),
    ("$.analysis", [], "expected object, got list"),
    ("$.coordinate_mode", 1, "expected string, got int"),
    ("$.coordinate_mode", "polar", "expected one of ('metric', 'normalized'), got 'polar'"),
    ("$.provenance", 5, "expected string, got int"),
    ("$.nodes[0]", [], "expected object, got list"),
    ("$.nodes[0].id", 1.0, "expected integer, got float"),
    ("$.nodes[0].id", True, "expected integer, got bool"),
    ("$.nodes[0].x", "0", "expected number, got str"),
    ("$.nodes[0].y", True, "expected number, got bool"),
    ("$.nodes[1].y", None, "expected number, got NoneType"),
    ("$.nodes[1].x", 10 ** 400, "number out of float range"),
    ("$.elements[0].kind", 3, "expected string, got int"),
    ("$.elements[0].kind", "beam", "expected one of ('truss_bar', 'frame_beam'), got 'beam'"),
    ("$.elements[0].nodes", {}, "expected array, got dict"),
    ("$.elements[0].nodes", [1], "expected exactly 2 node ids, got 1"),
    ("$.elements[0].nodes", [1, 2, 3], "expected exactly 2 node ids, got 3"),
    ("$.elements[0].nodes[1]", 2.0, "expected integer, got float"),
    ("$.elements[0].section", "1", "expected integer, got str"),
    ("$.materials[0].youngs_modulus", "210e9", "expected number, got str"),
    ("$.materials[0].poisson_ratio", [], "expected number, got list"),
    ("$.materials[0].density", {}, "expected number, got dict"),
    ("$.sections[0].material", 1.0, "expected integer, got float"),
    ("$.sections[0].area", None, "expected number, got NoneType"),
    ("$.sections[0].moment_of_inertia", "1e-6", "expected number, got str"),
    ("$.bcs[0].node", None, "expected integer, got NoneType"),
    ("$.bcs[0].dofs", "ux", "expected array, got str"),
    ("$.bcs[0].dofs[1]", "uz", f"expected one of {DOFS}, got 'uz'"),
    ("$.bcs[0].dofs[0]", 1, "expected string, got int"),
    ("$.loads[0].node", 2.5, "expected integer, got float"),
    ("$.loads[0].fx", "0", "expected number, got str"),
    ("$.loads[0].fy", None, "expected number, got NoneType"),
    ("$.loads[0].mz", False, "expected number, got bool"),
    ("$.analysis.mode", "dynamic",
     "expected one of ('static', 'modal', 'topology_optimization'), got 'dynamic'"),
    ("$.analysis.mode", 0, "expected string, got int"),
    ("$.analysis.modal_count", 3.0, "expected integer, got float"),
    ("$.analysis.volfrac", "0.4", "expected number, got str"),
    ("$.analysis.max_iterations", 20.5, "expected integer, got float"),
] + [(p, 1, "unknown field") for p in (
    "$.bogus", "$.nodes[0].z", "$.elements[0].material", "$.materials[0].name",
    "$.sections[0].inertia", "$.bcs[0].dof", "$.loads[0].fz", "$.analysis.count")]


class TestDocumentFormat:
    @pytest.mark.parametrize("case", sorted(p.parent.name for p in
                                            SUITE_DIR.glob("*/truth.ir.json")))
    def test_committed_documents_round_trip_byte_exact(self, case):
        text = (SUITE_DIR / case / "truth.ir.json").read_text(encoding="utf-8")
        assert serialize(deserialize(text)) == text

    def test_full_document_round_trips(self):
        text = json.dumps(FULL_DOC, indent=2) + "\n"
        assert serialize(deserialize(text)) == text

    @pytest.mark.parametrize("path,value,reason", DEFECTS,
                             ids=[f"{path}:{reason}" for path, _, reason in DEFECTS])
    def test_single_defect_names_its_path(self, path, value, reason):
        with pytest.raises(SchemaParseError) as err:
            deserialize(with_defect(path, value))
        assert (err.value.path, err.value.reason) == (path, reason)

    @pytest.mark.parametrize("path,value_of,default", [
        ("$.sections[0].moment_of_inertia", lambda m: m.sections[0].moment_of_inertia, None),
        ("$.analysis.modal_count", lambda m: m.analysis.modal_count, None),
        ("$.analysis.volfrac", lambda m: m.analysis.opt_volume_fraction, None),
        ("$.analysis.max_iterations", lambda m: m.analysis.opt_max_iterations, None),
        ("$.provenance", lambda m: m.provenance, "")])
    def test_optional_field_may_be_left_out(self, path, value_of, default):
        assert value_of(deserialize(with_defect(path, DELETE))) == default

    @pytest.mark.parametrize("text", ["[" * 100_000, "1" + "0" * 5000],
                             ids=["deep-nesting", "overlong-integer"])
    def test_undecodable_text_is_a_syntax_error(self, text):
        with pytest.raises(SchemaParseError) as err:
            deserialize(text)
        assert err.value.path == "$"
        assert err.value.reason.startswith("invalid document syntax")

    def test_first_missing_field_in_key_order_whatever_the_hash_seed(self):
        code = ("from vfea.ir import SchemaParseError, deserialize\n"
                "try:\n    deserialize('{\"nodes\": []}')\n"
                "except SchemaParseError as exc:\n    print(exc.path, exc.reason)\n")
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(REPO_ROOT / "src"))
            out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                 text=True, check=True).stdout
            assert out == "$.elements missing required field\n"


class TestBoundingBox:
    def test_non_finite_points_are_skipped(self):
        points = [(math.nan, 5.0), (1.0, -2.0), (math.inf, 0.0), (3.0, 4.0), (0.0, -math.inf)]
        assert bounding_box(points) == (1.0, -2.0, 3.0, 4.0)
        assert bounding_box(reversed(points)) == (1.0, -2.0, 3.0, 4.0)

    def test_no_finite_point_has_no_box(self):
        assert bounding_box([]) is None
        assert bounding_box([(math.nan, 0.0), (0.0, math.inf)]) is None


@st.composite
def models(draw) -> IRModel:
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return random_frame_model(random.Random(seed))


@settings(max_examples=60, deadline=None)
@given(models())
def test_round_trip_property(model):
    assert deserialize(serialize(model)) == model


@settings(max_examples=60, deadline=None)
@given(models())
def test_canonicalize_idempotent_property(model):
    once = canonicalize(model)
    assert canonicalize(once) == once


def reference_canonicalize(model: IRModel) -> IRModel:
    """The canonical form by its definition: every list sorted by id (stably)
    into a tuple, every element pair rebuilt ascending."""
    return replace(
        model,
        nodes=tuple(sorted(model.nodes, key=lambda n: n.id)),
        elements=tuple(replace(e, node_ids=(min(e.node_ids), max(e.node_ids)))
                       for e in sorted(model.elements, key=lambda e: e.id)),
        materials=tuple(sorted(model.materials, key=lambda m: m.id)),
        sections=tuple(sorted(model.sections, key=lambda s: s.id)),
        boundary_conditions=tuple(sorted(model.boundary_conditions, key=lambda b: b.node_id)),
        loads=tuple(sorted(model.loads, key=lambda l: l.node_id)),
    )


@st.composite
def scrambled_models(draw) -> IRModel:
    """A random model with some lists shuffled or given as lists, some pairs
    flipped, and repeated ids whose records differ, so a sort that is not
    stable would show."""
    model = draw(models())
    rng = draw(st.randoms(use_true_random=False))
    repeat = {"nodes": lambda n: replace(n, x=n.x + 1.0),
              "elements": lambda e: replace(e, kind="truss_bar"),
              "loads": lambda l: replace(l, fx=l.fx + 1.0)}
    lists = {}
    for name in ("nodes", "elements", "materials", "sections", "boundary_conditions",
                 "loads"):
        items = list(getattr(model, name))
        if name == "elements":
            items = [replace(e, node_ids=e.node_ids[::-1]) if rng.random() < 0.3 else e
                     for e in items]
        if name in repeat and rng.random() < 0.3:
            items.append(repeat[name](rng.choice(items)))
        if rng.random() < 0.5:
            rng.shuffle(items)
        lists[name] = items if rng.random() < 0.1 else tuple(items)
    return replace(model, **lists)


@settings(max_examples=200, deadline=None)
@given(scrambled_models())
def test_canonicalize_matches_reference_property(model):
    got = canonicalize(model)
    assert got == reference_canonicalize(model)
    assert canonicalize(got) is got
    assert (got is model) == (model == got)


@settings(max_examples=60, deadline=None)
@given(models())
def test_self_diff_empty_property(model):
    change = diff(model, model)
    assert change.empty and not change.degenerative


@settings(max_examples=30, deadline=None)
@given(models(), st.integers(min_value=100, max_value=200))
def test_pure_addition_never_degenerative(model, new_id):
    grown = canonicalize(replace(model, nodes=model.nodes + (Node(new_id, 99.0, 99.0),),
                                 loads=model.loads + (Load(new_id, 1.0, 0.0, 0.0),)))
    assert not diff(model, grown).degenerative


def naive_pairs(points, r, others=None):
    """All-pairs reference for ``pairs_within``: the sorted (i, j) pairs."""
    targets = points if others is None else others
    out = []
    for i, p in enumerate(points):
        for j, q in enumerate(targets):
            if others is None and j <= i:
                continue
            d = math.dist(p, q)
            if math.isfinite(d) and d <= r:
                out.append((i, j))
    return sorted(out)


def found_pairs(points, r, others=None):
    """``pairs_within``'s index arrays as sorted (i, j) pairs."""
    i, j = pairs_within(points, r, others)
    return sorted(zip(i.tolist(), j.tolist()))


RADII = st.one_of(
    st.sampled_from([0.0, 1.0, 3.0, 0.1, 2.5e-3, 5e-324, 1e-300, 1e300, math.inf, -1.0,
                     math.nan]),
    st.floats(min_value=0.0, allow_infinity=False))


@st.composite
def point_sets(draw, r):
    """Points on multiples of r and r/2 (exactly r apart, on cell boundaries),
    negative and arbitrary coordinates, duplicates and non-finite values."""
    lattice = abs(r) if math.isfinite(r) and r != 0 else 1.0
    coord = st.one_of(
        st.integers(-6, 6).map(lambda k: k * lattice),
        st.integers(-12, 12).map(lambda k: k * lattice / 2),
        st.floats(min_value=-8 * lattice, max_value=8 * lattice),
        st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -1.7e308,
                         1.7e308]),
        st.floats())
    points = draw(st.lists(st.tuples(coord, coord), max_size=24))
    if points:
        points += draw(st.lists(st.sampled_from(points), max_size=4))  # duplicates
    return points


class TestPairsWithin:
    def test_exactly_r_apart_across_a_cell_boundary(self):
        assert found_pairs([(0.0, 0.0), (3.0, 0.0), (3.0, 4.0)], 3.0) == [(0, 1)]

    def test_two_sets_pair_first_to_second(self):
        got = found_pairs([(0.0, 0.0), (10.0, 0.0)], 1.0, [(10.5, 0.0), (0.0, 1.0)])
        assert got == [(0, 1), (1, 0)]

    def test_non_finite_points_and_radii_match_nothing(self):
        points = [(math.nan, 0.0), (math.nan, 0.0), (math.inf, 0.0), (math.inf, 0.0)]
        assert found_pairs(points, 1.0) == []
        assert found_pairs([(0.0, 0.0), (0.0, 0.0)], math.nan) == []
        # an infinite radius takes every finite distance, never an overflowing one
        far = [(-1.7e308, 0.0), (0.0, 0.0), (1.7e308, 0.0)]
        assert found_pairs(far, math.inf) == [(0, 1), (1, 2)]

    @pytest.mark.parametrize("r", [5e-324, 1e-310, 1.0, 1.7e308, sys.float_info.max,
                                   math.inf])
    def test_extreme_coordinates_and_radii(self, r):
        # cell keys and candidate distances must neither overflow nor lose a
        # pair at the ends of the float range
        coords = [-1.7e308, -1e300, -1.0, -0.0, 0.0, 5e-324, 1.0, 1e300, 1.7e308]
        points = [(x, y) for x in coords for y in coords]
        assert found_pairs(points, r) == naive_pairs(points, r)
        others = points[::-2]
        assert found_pairs(points, r, others) == naive_pairs(points, r, others)

    def test_radius_where_hypot_and_dist_disagree(self):
        # np.hypot and math.dist differ in the last place for some pairs; a
        # radius equal to either one must give the pair exactly by math.dist
        rng = random.Random(5)
        disagree = 0
        for _ in range(3000):
            p = (rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3))
            q = (rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3))
            d, h = math.dist(p, q), float(np.hypot(p[0] - q[0], p[1] - q[1]))
            if d != h:
                disagree += 1
                for r in (d, h):
                    assert found_pairs([p, q], r) == naive_pairs([p, q], r)
                    assert found_pairs([p], r, [q]) == naive_pairs([p], r, [q])
        assert disagree > 0

    def test_subnormal_radius_beside_huge_coordinates(self):
        points = [(1e300, 0.0), (1e300, 5e-324), (-1e300, 0.0), (5e-324, 0.0), (0.0, 0.0)]
        assert found_pairs(points, 5e-324) == naive_pairs(points, 5e-324)


@settings(max_examples=200, deadline=None)
@given(st.data(), RADII)
def test_pairs_within_equals_all_pairs(data, r):
    points = data.draw(point_sets(r))
    assert found_pairs(points, r) == naive_pairs(points, r)
    others = data.draw(point_sets(r))
    assert found_pairs(points, r, others) == naive_pairs(points, r, others)


@settings(max_examples=200, deadline=None)
@given(st.data(), RADII)
def test_pairs_within_equals_reference(data, r):
    """The same pairs in the same order as confirming the near candidates
    one at a time, points exactly r apart included."""
    points, others = data.draw(point_sets(r)), data.draw(point_sets(r))
    for args in ((points, r), (points, r, others)):
        got, want = pairs_within(*args), pairs_within_reference.pairs_within(*args)
        assert [a.tolist() for a in got] == [a.tolist() for a in want]


# Coordinates whose distances are subnormal, zero, overflowing, infinite or
# NaN, and ordinary ones, where np.hypot and math.dist disagree now and then
DISTANCE_COORDS = st.one_of(
    st.floats(-1e3, 1e3),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.7e308, -1.7e308,
                     sys.float_info.max, math.inf, -math.inf, math.nan]),
    st.floats())
DISTANCE_POINTS = st.tuples(DISTANCE_COORDS, DISTANCE_COORDS)


def disagreeing_pairs(n: int) -> list:
    """The pairs of points, among ``n`` random ones, whose np.hypot distance
    and math.dist differ (in the last place)."""
    rng = random.Random(5)
    pairs = [tuple(tuple(rng.uniform(-1e3, 1e3) for _ in "xy") for _ in "pq") for _ in range(n)]
    return [(p, q) for p, q in pairs
            if math.dist(p, q) != float(np.hypot(p[0] - q[0], p[1] - q[1]))]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(DISTANCE_POINTS, DISTANCE_POINTS)
                | st.sampled_from(disagreeing_pairs(3000)), min_size=1, max_size=6),
       st.data())
def test_distances_compare_with_bounds_as_math_dist(pairs, data):
    """Each distance compares with each bound by <, <= and == as math.dist
    does, for a bound on one math.dist or a few ulps either side of it and
    for zero, subnormal, infinite, NaN and the largest finite bounds."""
    exact = [math.dist(p, q) for p, q in pairs]
    placed = data.draw(st.sampled_from(exact))
    for _ in range(abs(ulps := data.draw(st.integers(-3, 3)))):
        placed = math.nextafter(placed, math.copysign(math.inf, ulps))
    bounds = [placed, *data.draw(st.lists(st.sampled_from(
        [0.0, 5e-324, 1e-310, 1.0, sys.float_info.max, math.inf, -math.inf, math.nan]),
        max_size=2))]
    got = _distances(np.array([p for p, _ in pairs]), np.array([q for _, q in pairs]), *bounds)
    for d, want in zip(got.tolist(), exact):
        for b in bounds:
            assert (d < b, d <= b, d == b) == (want < b, want <= b, want == b)


# --- bulk (column by column) reading ----------------------------------------

def read_outcome(read, text: str) -> tuple:
    """What reading ``text`` gives: ("value", repr) or ("defect", path, reason),
    or the type and message of any other error."""
    try:
        return "value", repr(_read_json(read, text))
    except _Defect as defect:
        return "defect", defect.path, defect.reason
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def item_by_item(read, text: str) -> tuple:
    """``read_outcome`` with every bulk reader switched off."""
    with mock.patch.object(ir, "_column", lambda read_item: lambda values: None):
        return read_outcome(read, text)


def drawing_doc(rng: random.Random) -> dict:
    def point():
        return [rng.choice([rng.randint(-500, 500), rng.uniform(-500.0, 500.0)])
                for _ in range(2)]
    doc = {
        "segments": [{"p1": point(), "p2": point(),
                      "class": rng.choice(["structural", "structural", "dimension"])}
                     for _ in range(rng.randint(0, 12))],
        "labels": [{"anchor": point(), "text": rng.choice(["A", "B", ""])}
                   for _ in range(rng.randint(0, 3))],
        "support_glyphs": [{"anchor": point(), "kind": rng.choice(["pin", "fixed"])}
                           for _ in range(rng.randint(0, 3))],
        "load_arrows": [{"anchor": point(), "direction": [0, -1], "magnitude": "1 kN"}
                        for _ in range(rng.randint(0, 3))],
    }
    dims = [k for k, s in enumerate(doc["segments"]) if s["class"] == "dimension"]
    doc["dimension_annotations"] = [{"segment": k, "value_m": rng.uniform(0.5, 5.0)}
                                    for k in dims]
    return doc


def results_doc(rng: random.Random) -> dict:
    def id_map(make):
        return {str(i): make() for i in sorted(rng.sample(range(1, 40), rng.randint(0, 8)))}

    def triple():
        return [rng.uniform(-1.0, 1.0) for _ in range(3)]

    kind = rng.choice(["static", "modal", "topo"])
    if kind == "static":
        return {"result_kind": kind, "displacements": id_map(triple),
                "reactions": id_map(triple), "axial_force": id_map(rng.random),
                "axial_stress": id_map(rng.random),
                "frame_end_forces": id_map(lambda: [rng.random() for _ in range(6)]),
                "equilibrium_residual": rng.random()}
    if kind == "modal":
        return {"result_kind": kind, "frequencies_hz": [rng.random() for _ in range(3)],
                "mode_shapes": [id_map(triple) for _ in range(3)], "note": "n"}
    return {"result_kind": kind, "areas": id_map(rng.random),
            "compliance_history": [rng.random() for _ in range(4)],
            "final_volume_fraction": rng.random()}


REPLACEMENTS = ["x", True, None, math.nan, 10 ** 400, -1, 2.5, [], {}, [1.0, 2.0]]
# replacements of the same JSON type, which only the finer checks catch
LIKE = {str: ["x", "", "structural", "pin", "ux", "frame_beam"],
        float: [math.nan, math.inf, -math.inf, 10 ** 400], int: [True, 1.0, 10 ** 400],
        list: [[], [1.0], [1.0, 2.0, 3.0], ["x", 1.0]]}


def inject(doc, rng: random.Random) -> None:
    """One random edit somewhere in ``doc``: a value replaced or dropped, an
    unknown key added, a key renamed (a map id made non-canonical) or moved
    to the end. Some edits leave the document valid."""
    sites = []

    def walk(value):
        if isinstance(value, (dict, list)):
            for key in (list(value) if isinstance(value, dict) else range(len(value))):
                sites.append((value, key))
                walk(value[key])
    walk(doc)
    fields = [site for site in sites if isinstance(site[0], dict)]
    if not sites:
        return
    # most edits hit an object's field; most sites are coordinates
    parent, key = rng.choice(fields if fields and rng.random() < 0.7 else sites)
    edits = ["replace", "drop"] + (["add", "rename", "move"] if isinstance(parent, dict) else [])
    edit = rng.choice(edits)
    if edit == "replace":
        like = LIKE.get(type(parent[key]))
        parent[key] = rng.choice(like if like and rng.random() < 0.5 else REPLACEMENTS)
    elif edit == "drop":
        del parent[key]
    elif edit == "add":
        parent["zz"] = 1
    elif edit == "rename":  # where it stands
        new = rng.choice([f"0{key}", f"+{key}", f" {key}", f"{key}_", "-0", f"{key},{key}",
                          "\u0661"])
        items = [(new if k == key else k, v) for k, v in parent.items()]
        parent.clear()
        parent.update(items)
    else:  # same content, another key order
        parent[key] = parent.pop(key)


DOCUMENTS = {
    "ir": (lambda rng: json.loads(serialize(random_frame_model(rng))), ir._read_model),
    "drawing": (drawing_doc, perception._read_drawing),
    "results": (results_doc, sandbox._read_result_set),
}


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(sorted(DOCUMENTS)), st.integers(0, 2), st.integers(0, 2 ** 32))
def test_bulk_reading_equals_item_by_item(kind, defects, seed):
    make, read = DOCUMENTS[kind]
    rng = random.Random(seed)
    doc = make(rng)
    for _ in range(defects):
        inject(doc, rng)
    text = json.dumps(doc)
    assert read_outcome(read, text) == item_by_item(read, text)


@pytest.mark.parametrize("kind", sorted(DOCUMENTS))
def test_valid_documents_are_read_in_bulk(kind):
    # every array and id map of a valid document is read in one piece, so
    # the property above compares the two paths and not one with itself
    make, read = DOCUMENTS[kind]
    taken = []
    bulk_of = ir._column

    def spy(read_item):
        bulk = bulk_of(read_item)

        def read_values(values):
            out = bulk(values)
            taken.append(out is not None)
            return out
        return read_values

    for seed in range(10):
        text = json.dumps(make(random.Random(seed)))
        with mock.patch.object(ir, "_column", spy):
            assert read_outcome(read, text) == item_by_item(read, text)
    assert taken and all(taken)


# The readers each document had before its current column paths.
REFERENCE_READERS = {"ir": readers_reference.read_model,
                     "drawing": readers_reference.read_drawing,
                     "results": readers_reference.read_result_set}


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(sorted(DOCUMENTS)), st.integers(0, 2), st.integers(0, 2 ** 32))
def test_readers_agree_with_the_reference(kind, defects, seed):
    """The same value, or the same defect path and reason, as the reader
    each document had before."""
    make, read = DOCUMENTS[kind]
    rng = random.Random(seed)
    doc = make(rng)
    for _ in range(defects):
        inject(doc, rng)
    text = json.dumps(doc)
    assert read_outcome(read, text) == read_outcome(REFERENCE_READERS[kind], text)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32))
def test_results_writer_agrees_with_the_reference(tmp_path_factory, seed):
    """The bytes ``write_results_file`` writes are the reference's, maps
    given out of id order included."""
    rng = random.Random(seed)
    rs = sandbox._read_result_set(results_doc(rng))
    maps = {f.attr: getattr(rs, f.attr) for f in sandbox._RESULTS[type(rs)]
            if isinstance(getattr(rs, f.attr), dict) and rng.random() < 0.5}
    rs = replace(rs, **{k: dict(rng.sample(list(v.items()), len(v))) for k, v in maps.items()})
    path = tmp_path_factory.mktemp("results") / "results.res"
    sandbox.write_results_file(rs, path)
    assert path.read_text() == json.dumps(readers_reference.results_doc(rs)) + "\n"
