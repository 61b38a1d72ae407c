"""IR core: canonical form, diffing, schema round-trips."""

from __future__ import annotations

import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_frame_model
from vfea.ir import (AnalysisSpec, CanonicalizationError, Element, IRModel,
                     Load, Node, SchemaParseError, canonicalize, deserialize,
                     diff, pairs_within, serialize)


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
    """All-pairs reference for ``pairs_within``."""
    targets = points if others is None else others
    out = []
    for i, p in enumerate(points):
        for j, q in enumerate(targets):
            if others is None and j <= i:
                continue
            d = math.dist(p, q)
            if math.isfinite(d) and d <= r:
                out.append((d, i, j))
    return sorted(out)


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
        assert pairs_within([(0.0, 0.0), (3.0, 0.0), (3.0, 4.0)], 3.0) == [(3.0, 0, 1)]

    def test_two_sets_pair_first_to_second(self):
        got = sorted(pairs_within([(0.0, 0.0), (10.0, 0.0)], 1.0, [(10.5, 0.0), (0.0, 1.0)]))
        assert got == [(0.5, 1, 0), (1.0, 0, 1)]

    def test_non_finite_points_and_radii_match_nothing(self):
        points = [(math.nan, 0.0), (math.nan, 0.0), (math.inf, 0.0), (math.inf, 0.0)]
        assert pairs_within(points, 1.0) == []
        assert pairs_within([(0.0, 0.0), (0.0, 0.0)], math.nan) == []
        # an infinite radius takes every finite distance, never an overflowing one
        far = [(-1.7e308, 0.0), (0.0, 0.0), (1.7e308, 0.0)]
        assert sorted((i, j) for _, i, j in pairs_within(far, math.inf)) == [(0, 1), (1, 2)]

    def test_subnormal_radius_beside_huge_coordinates(self):
        points = [(1e300, 0.0), (1e300, 5e-324), (-1e300, 0.0), (5e-324, 0.0), (0.0, 0.0)]
        assert sorted(pairs_within(points, 5e-324)) == naive_pairs(points, 5e-324)


@settings(max_examples=200, deadline=None)
@given(st.data(), RADII)
def test_pairs_within_equals_all_pairs(data, r):
    points = data.draw(point_sets(r))
    assert sorted(pairs_within(points, r)) == naive_pairs(points, r)
    others = data.draw(point_sets(r))
    assert sorted(pairs_within(points, r, others)) == naive_pairs(points, r, others)
