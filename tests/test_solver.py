"""Structural kernel oracles: hand element matrices, closed-form statics,
method of joints, eigenvalue laws, optimality-criteria behavior."""

from __future__ import annotations

import itertools
import json
import math
import random
import sys
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (BAR, BEAM, REPO_ROOT, STEEL, cantilever_model, ground_structure,
                      modal_cantilever, random_frame_model, two_bar_truss)
from vfea.ir import (AnalysisSpec, BoundaryCondition, Element, IRModel, Load,
                     Node, Section, canonicalize, deserialize)
from vfea import solver
from vfea.sandbox import Limits, allocate_workspace, execute
from vfea.simscript import lower_ir
from vfea.solver import (AssemblyError, SingularSystemError,
                         UnsupportedOptimizationError, assemble, build_dof_index,
                         optimize_topology, solve_modal, solve_static, solved_dofs)
from vfea.validation import restraint_rank

sys.path.insert(0, str(REPO_ROOT / "perfbench"))
import workloads  # noqa: E402


def single_bar(end: tuple[float, float]) -> IRModel:
    L = math.hypot(*end)
    area = 1e6 * L / STEEL.youngs_modulus  # EA/L = 1e6 N/m
    return canonicalize(IRModel(
        nodes=(Node(1, 0.0, 0.0), Node(2, end[0], end[1])),
        elements=(Element(1, "truss_bar", (1, 2), 1),),
        materials=(STEEL,), sections=(Section(1, 1, area),),
        boundary_conditions=(BoundaryCondition(1, frozenset({"ux", "uy"})),),
        loads=(Load(2, 1.0, 0.0, 0.0),)))


def unbraced_square(analysis: AnalysisSpec = AnalysisSpec()) -> IRModel:
    """Restraint rank 3, but the square can shear: an internal mechanism."""
    return canonicalize(IRModel(
        nodes=(Node(1, 0.0, 0.0), Node(2, 1.0, 0.0), Node(3, 1.0, 1.0), Node(4, 0.0, 1.0)),
        elements=(Element(1, "truss_bar", (1, 2), 1), Element(2, "truss_bar", (2, 3), 1),
                  Element(3, "truss_bar", (3, 4), 1), Element(4, "truss_bar", (4, 1), 1)),
        materials=(STEEL,), sections=(BAR,),
        boundary_conditions=(BoundaryCondition(1, frozenset({"ux", "uy"})),
                             BoundaryCondition(2, frozenset({"uy"})),),
        loads=(Load(3, 1000.0, 0.0, 0.0),), analysis=analysis))


class TestAssemble:
    def test_horizontal_bar_stiffness_entries(self):
        sys_ = assemble(single_bar((2.0, 0.0)))
        i1 = sys_.dof_index[(1, "ux")]
        i2 = sys_.dof_index[(2, "ux")]
        assert sys_.K[i1, i1] == pytest.approx(1e6)
        assert sys_.K[i1, i2] == pytest.approx(-1e6)

    def test_vertical_bar_has_no_ux_coupling(self):
        sys_ = assemble(single_bar((0.0, 2.0)))
        i1 = sys_.dof_index[(1, "ux")]
        i2 = sys_.dof_index[(2, "ux")]
        assert sys_.K[i1, i1] == 0.0
        assert sys_.K[i1, i2] == 0.0

    def test_shared_dof_superposes_contributions(self):
        m = two_bar_truss()
        sys_ = assemble(m)
        singles = []
        for e in m.elements:
            just_one = canonicalize(replace(m, elements=(e,), loads=()))
            singles.append(assemble(just_one))
        # apex node 3 carries both bars: stiffness adds
        full = sys_.K[sys_.dof_index[(3, "uy")], sys_.dof_index[(3, "uy")]]
        parts = sum(s.K[s.dof_index[(3, "uy")], s.dof_index[(3, "uy")]] for s in singles)
        assert full == pytest.approx(parts, rel=1e-12)

    def test_symmetry_and_psd(self):
        m = random_frame_model(random.Random(3))
        sys_ = assemble(m)
        K, M = sys_.K.toarray(), sys_.M.toarray()
        assert np.max(np.abs(K - K.T)) <= 1e-12 * np.max(np.abs(K))
        assert np.max(np.abs(M - M.T)) <= 1e-12 * np.max(np.abs(M))
        eigs = np.linalg.eigvalsh(K)
        assert eigs.min() >= -1e-8 * eigs.max()  # PSD before constraints

    def test_static_and_topology_never_build_mass(self, monkeypatch):
        def no_mass(e):
            raise AssertionError("mass matrix assembled")
        monkeypatch.setattr(solver, "_element_mass", no_mass)
        solve_static(cantilever_model())
        optimize_topology(ground_structure(iters=2))
        with pytest.raises(AssertionError, match="mass matrix assembled"):
            solve_modal(modal_cantilever(1))

    def test_zero_length_element_rejected(self):
        m = IRModel(nodes=(Node(1, 0.0, 0.0), Node(2, 0.0, 0.0)),
                    elements=(Element(1, "truss_bar", (1, 2), 1),),
                    materials=(STEEL,), sections=(BAR,),
                    boundary_conditions=(BoundaryCondition(1, frozenset({"ux", "uy"})),),
                    loads=(Load(2, 1.0, 0.0, 0.0),))
        with pytest.raises(AssemblyError):
            assemble(m)


class TestStatic:
    def test_cantilever_tip_deflection_closed_form(self):
        # P L^3 / (3 E I), exact for a single Euler-Bernoulli element
        m = cantilever_model(load=-1000.0, length=2.0)
        r = solve_static(m)
        exact = -1000.0 * 2.0**3 / (3 * STEEL.youngs_modulus * 1e-6)
        assert r.displacements[2][1] == pytest.approx(exact, rel=1e-9)

    def test_two_bar_truss_method_of_joints(self):
        # joint equilibrium at the apex: 2 N sin(45) + P = 0
        m = two_bar_truss(load=-10_000.0)
        r = solve_static(m)
        expected = -10_000.0 / (2 * math.sin(math.radians(45)))
        for e in m.elements:
            assert r.axial_force[e.id] == pytest.approx(expected, rel=1e-9)
            assert r.axial_force[e.id] < 0  # compression
            assert r.axial_stress[e.id] == pytest.approx(expected / BAR.area, rel=1e-9)

    def test_zero_loads_zero_response(self):
        m = replace(two_bar_truss(), loads=())
        r = solve_static(m)
        assert all(v == (0.0, 0.0, 0.0) for v in r.displacements.values())
        assert all(v == (0.0, 0.0, 0.0) for v in r.reactions.values())

    def test_reactions_only_at_constrained_nodes(self):
        r = solve_static(two_bar_truss())
        assert set(r.reactions) == {1, 2}

    def test_global_equilibrium(self):
        rng = random.Random(42)
        for _ in range(20):
            m = random_frame_model(rng)
            r = solve_static(m)
            pos = m.node_positions()
            fx = sum(l.fx for l in m.loads) + sum(v[0] for v in r.reactions.values())
            fy = sum(l.fy for l in m.loads) + sum(v[1] for v in r.reactions.values())
            mz = sum(l.mz + pos[l.node_id][0] * l.fy - pos[l.node_id][1] * l.fx
                     for l in m.loads)
            mz += sum(v[2] + pos[nid][0] * v[1] - pos[nid][1] * v[0]
                      for nid, v in r.reactions.items())
            scale = max(abs(l.fx) + abs(l.fy) for l in m.loads)
            assert abs(fx) <= 1e-8 * scale
            assert abs(fy) <= 1e-8 * scale
            assert abs(mz) <= 1e-8 * scale * 10
            assert r.equilibrium_residual <= 1e-10

    def test_superposition(self):
        base = cantilever_model()
        m1 = replace(base, loads=(Load(2, 0.0, -1000.0, 0.0),))
        m2 = replace(base, loads=(Load(2, 500.0, 0.0, 200.0),))
        alpha, beta = 2.0, -3.0
        combo = replace(base, loads=(Load(2, beta * 500.0, alpha * -1000.0, beta * 200.0),))
        u1 = solve_static(m1).displacements[2]
        u2 = solve_static(m2).displacements[2]
        uc = solve_static(combo).displacements[2]
        for i in range(3):
            expected = alpha * u1[i] + beta * u2[i]
            assert uc[i] == pytest.approx(expected, rel=1e-10, abs=1e-18)

    def test_underrestrained_raises(self):
        m = replace(two_bar_truss(), boundary_conditions=(
            BoundaryCondition(1, frozenset({"uy"})), BoundaryCondition(2, frozenset({"uy"}))))
        with pytest.raises(SingularSystemError):
            solve_static(m)

    def test_negative_pivot_raises(self):
        # a negative modulus gives a negative definite K: the factor exists
        # but its pivots are negative
        m = replace(cantilever_model(), materials=(replace(STEEL, youngs_modulus=-210e9),))
        with pytest.raises(SingularSystemError):
            solve_static(m)

    def test_truss_mechanism_detected_at_solve_time(self):
        m = unbraced_square()
        assert restraint_rank(m) == 3
        with pytest.raises(SingularSystemError):
            solve_static(m)

    def test_rank3_frame_always_factorizes(self):
        # cross-module consistency: frames resist all relative motion, so
        # rank-3 restraint of a connected frame model guarantees solvability
        rng = random.Random(99)
        for _ in range(20):
            m = random_frame_model(rng)
            assert restraint_rank(m) == 3
            solve_static(m)  # must not raise


class TestModal:
    def test_cantilever_first_mode_within_2pct(self):
        m = modal_cantilever(1)
        r = solve_modal(m, subdivisions=8)
        lam1 = 1.8751040687119611
        f1 = (lam1**2 / (2 * math.pi)) * math.sqrt(
            STEEL.youngs_modulus * 1e-6 / (STEEL.density * 1e-2 * 2.0**4))
        assert r.frequencies_hz[0] == pytest.approx(f1, rel=0.02)

    def test_frequencies_ascending_positive(self):
        r = solve_modal(modal_cantilever(5))
        assert all(f > 0 for f in r.frequencies_hz)
        assert list(r.frequencies_hz) == sorted(r.frequencies_hz)

    def test_density_scaling_law(self):
        m = modal_cantilever()
        doubled = replace(m, materials=(replace(STEEL, density=2 * STEEL.density),))
        f_base = solve_modal(m).frequencies_hz
        f_heavy = solve_modal(doubled).frequencies_hz
        for fb, fh in zip(f_base, f_heavy):
            assert fh == pytest.approx(fb / math.sqrt(2.0), rel=1e-9)

    def test_rotation_invariance_of_frequencies(self):
        m = modal_cantilever()
        theta = math.radians(37.0)
        c, s = math.cos(theta), math.sin(theta)
        rotated = replace(m, nodes=tuple(
            replace(n, x=c * n.x - s * n.y, y=s * n.x + c * n.y) for n in m.nodes))
        f0 = solve_modal(m).frequencies_hz
        f1 = solve_modal(rotated).frequencies_hz
        for a, b in zip(f0, f1):
            assert b == pytest.approx(a, rel=1e-9)

    def test_mode_shape_normalization(self):
        # the largest-magnitude translation is +1; a cantilever peaks at its tip
        r = solve_modal(modal_cantilever(2))
        for shape in r.mode_shapes:
            peak = max((c for v in shape.values() for c in v[:2]), key=abs)
            assert peak == pytest.approx(1.0, rel=1e-12)

    def test_simply_supported_beam_first_frequency_closed_form(self):
        # pin plus roller: f1 = (pi / 2 L^2) sqrt(E I / rho A)
        L = 2.0
        m = replace(modal_cantilever(1), boundary_conditions=(
            BoundaryCondition(1, frozenset({"ux", "uy"})),
            BoundaryCondition(2, frozenset({"uy"}))))
        f1 = math.pi / (2 * L**2) * math.sqrt(
            STEEL.youngs_modulus * BEAM.moment_of_inertia / (STEEL.density * BEAM.area))
        r = solve_modal(m, subdivisions=8)
        assert r.frequencies_hz[0] == pytest.approx(f1, rel=1e-4)

    @pytest.mark.parametrize("model", [modal_cantilever(0), cantilever_model()],
                             ids=["zero", "unset"])
    def test_modal_count_must_be_positive(self, model):
        with pytest.raises(ValueError, match="modal count must be >= 1"):
            solve_modal(model)

    def test_truncation_note_when_too_many_modes_requested(self):
        r = solve_modal(modal_cantilever(500), subdivisions=2)
        assert r.note is not None
        assert len(r.frequencies_hz) < 500

    def test_internal_mechanism_raises(self, tmp_path):
        m = unbraced_square(AnalysisSpec(mode="modal", modal_count=1))
        assert restraint_rank(m) == 3
        with pytest.raises(SingularSystemError):
            solve_modal(m)
        out = execute(lower_ir(m), allocate_workspace(tmp_path, "mech"), Limits())
        assert out.status == "FAILED"
        assert out.runtime_error.kind == "solver"

    def test_insufficient_restraint(self):
        m = replace(modal_cantilever(1), boundary_conditions=(
            BoundaryCondition(1, frozenset({"ux", "uy"})),))
        with pytest.raises(SingularSystemError):
            solve_modal(m)


def turned(model: IRModel, degrees: float) -> IRModel:
    """The model rotated about the origin."""
    c, s = math.cos(math.radians(degrees)), math.sin(math.radians(degrees))
    return canonicalize(replace(model, nodes=tuple(
        replace(n, x=c * n.x - s * n.y, y=s * n.x + c * n.y) for n in model.nodes)))


# BAND_RATIO_MAX values that send every model to one factor form
FORCED = {"band": 1e9, "sparse": 0.0}


def forced_free_dofs(system, form: str):
    """The system's free dofs, with the rule set to give them ``form``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "BAND_RATIO_MAX", FORCED[form])
        return solver._FreeDofs(system.pattern, system.constrained)


# Half-degree turns of the unbraced square. Only the axis-aligned square
# meets an exactly zero pivot; turned, its shear mode leaves a pivot of
# rounding size, positive or negative.
TURNS = [0.5 * k for k in range(1, 90)]


class TestMechanismRule:
    @pytest.mark.parametrize("mode,turns", [("inprocess", TURNS), ("subprocess", TURNS[1::16])])
    def test_turned_mechanism_fails_in_both_execution_modes(self, tmp_path, mode, turns):
        # without the mechanism rule, modal runs of many of these turns
        # report a near-zero first frequency, and verification accepts it
        for degrees in turns:
            m = turned(unbraced_square(AnalysisSpec(mode="modal", modal_count=1)), degrees)
            out = execute(lower_ir(m), allocate_workspace(tmp_path, "turned"), Limits(),
                          mode=mode)
            assert out.status == "FAILED", degrees
            assert out.runtime_error.kind == "solver", degrees

    def test_every_factor_form_applies_it(self):
        for degrees in [0.0, *TURNS]:
            system = assemble(turned(unbraced_square(), degrees))
            for form in FORCED:
                with pytest.raises(SingularSystemError, match="mechanism"):
                    forced_free_dofs(system, form).factor(system.K)


# areas of topopt_ground by element id, as the dense kernel computed them
TOPOPT_GROUND_AREAS = [
    0.01, 0.009951229111141368, 1e-08, 0.01, 0.01, 1e-08, 1e-08, 8.147672276795505e-06,
    0.0013758849998131407, 0.01, 0.005160833873930222, 0.01, 1e-08, 0.005160833873930221,
    1e-08, 0.001949319746778869, 0.009669798233986757, 0.0038517913574041903,
    8.147672276795573e-06, 1e-08, 0.003851791357404195, 1e-08, 0.01, 1e-08, 0.01,
    0.001949319746778867, 0.01, 0.01, 0.0051608338739302225, 0.009669798233986766, 0.01, 0.01,
    0.0038517913574041924, 0.01, 0.009951229111141357, 0.0013758849998131316]


class TestTopopt:
    def test_volume_constraint_satisfied(self, topopt_model):
        r = optimize_topology(topopt_model)
        assert r.final_volume_fraction <= 0.5 + 1e-6

    def test_compliance_improves_on_uniform_prior(self, topopt_model):
        r = optimize_topology(topopt_model)
        assert r.compliance_history[-1] < r.compliance_history[0]

    def test_compliance_history_non_increasing(self, topopt_model):
        r = optimize_topology(topopt_model)
        for a, b in zip(r.compliance_history, r.compliance_history[1:]):
            assert b <= a * (1 + 1e-9)

    def test_mirror_symmetry(self, topopt_model):
        r = optimize_topology(topopt_model)
        pos = topopt_model.node_positions()
        mirror_node = {nid: next(m for m, p in pos.items()
                                 if p == (2.0 - x, y))
                       for nid, (x, y) in pos.items()}
        by_pair = {frozenset(e.node_ids): e.id for e in topopt_model.elements}
        a_max = max(s.area for s in topopt_model.sections)
        for e in topopt_model.elements:
            partner = by_pair[frozenset(mirror_node[n] for n in e.node_ids)]
            assert abs(r.areas[e.id] - r.areas[partner]) <= 1e-6 * a_max

    def test_areas_within_bounds(self, topopt_model):
        r = optimize_topology(topopt_model)
        a_max = max(s.area for s in topopt_model.sections)
        for a in r.areas.values():
            assert 1e-6 * a_max - 1e-15 <= a <= a_max + 1e-15

    def test_frame_elements_rejected(self, cantilever):
        with pytest.raises(UnsupportedOptimizationError):
            optimize_topology(cantilever)

    def test_bundled_ground_structure_pinned(self, suite_dir):
        m = deserialize((suite_dir / "topopt_ground" / "truth.ir.json").read_text())
        r = optimize_topology(m)
        assert len(r.compliance_history) == 25  # 24 OC updates and the final solve
        assert [r.areas[k] for k in sorted(r.areas)] == pytest.approx(
            TOPOPT_GROUND_AREAS, rel=0, abs=1e-9 * max(s.area for s in m.sections))

    def test_volfrac_and_iters_from_analysis_spec(self):
        m = ground_structure(volfrac=0.3, iters=5)
        r = optimize_topology(m)
        assert r.final_volume_fraction <= 0.3 + 1e-6
        assert len(r.compliance_history) <= 6

    def test_zero_iterations_run_none(self):
        # an explicit 0 is not unset: the prior of 50 does not apply
        r = optimize_topology(ground_structure(iters=0))
        assert len(r.compliance_history) == 1  # the final solve of the uniform prior


def subdivide_reference(model: IRModel, n_sub: int) -> IRModel:
    """Every frame member split into n_sub elements with interior nodes, in
    the IR: the model whose matrices ``assemble(model, n_sub)`` must equal.

    Truss bars are untouched: an interior truss node carries no transverse
    stiffness and would introduce a spurious mechanism.
    """
    if n_sub <= 1:
        return model
    next_node = max((n.id for n in model.nodes), default=0) + 1
    next_elem = max((e.id for e in model.elements), default=0) + 1
    pos = model.node_positions()
    nodes = list(model.nodes)
    elements: list[Element] = []
    for e in sorted(model.elements, key=lambda e: e.id):
        if e.kind != "frame_beam":
            elements.append(e)
            continue
        (x1, y1), (x2, y2) = pos[e.node_ids[0]], pos[e.node_ids[1]]
        chain = [e.node_ids[0]]
        for i in range(1, n_sub):
            t = i / n_sub
            nodes.append(Node(next_node, x1 + t * (x2 - x1), y1 + t * (y2 - y1)))
            chain.append(next_node)
            next_node += 1
        chain.append(e.node_ids[1])
        elements.append(replace(e, node_ids=(chain[0], chain[1])))
        for a, b in zip(chain[1:-1], chain[2:]):
            elements.append(Element(next_elem, "frame_beam", (a, b), e.section_id))
            next_elem += 1
    return replace(model, nodes=tuple(nodes), elements=tuple(elements))


def frame_decks() -> list[tuple[str, IRModel]]:
    """The benchmark's generated frames, at every size of its deck, as drawn
    and with every node moved by up to 0.1 m: skewed members have two
    non-zero length components, and for some of them np.hypot and
    math.hypot differ in the last bit."""
    rng = random.Random(11)
    out = []
    for k, (a, b) in enumerate(workloads.FRAME_DECK):
        m = deserialize(json.dumps(workloads.frame(a, b, random.Random(f"frame{k}"))[2]))
        skewed = tuple(replace(n, x=n.x + rng.uniform(-0.1, 0.1), y=n.y + rng.uniform(-0.1, 0.1))
                       for n in m.nodes)
        out += [(f"frame{a}x{b}", m), (f"frame{a}x{b}-skewed", replace(m, nodes=skewed))]
    return out


def assert_same_system(got, want, label) -> None:
    """Bit-identical K, f, M and dof index, the index in the same order."""
    assert list(got.dof_index.items()) == list(want.dof_index.items()), label
    for name in ("K", "M"):
        a, b = getattr(got, name), getattr(want, name)
        for part in ("data", "indices", "indptr"):
            assert getattr(a, part).tobytes() == getattr(b, part).tobytes(), (label, name, part)
    assert got.f.tobytes() == want.f.tobytes(), label
    assert got.constrained == want.constrained, label


_POINTS = st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=2, max_size=6,
                   unique=True)


@st.composite
def mixed_models(draw) -> IRModel:
    """Truss bars and frame members between distinct points, ids with gaps,
    loads with moments and fixes with rotations; modal or static."""
    points = draw(_POINTS)
    ids = draw(st.lists(st.integers(1, 50), min_size=len(points), max_size=len(points),
                        unique=True))
    pairs = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids))
                          .filter(lambda p: p[0] != p[1]), min_size=1, max_size=8))
    kinds = draw(st.lists(st.sampled_from(["truss_bar", "frame_beam"]),
                          min_size=len(pairs), max_size=len(pairs)))
    elem_ids = draw(st.lists(st.integers(1, 80), min_size=len(pairs), max_size=len(pairs),
                             unique=True))
    sub = st.sampled_from(ids)
    dofs = st.frozensets(st.sampled_from(["ux", "uy", "rz"]), min_size=1)
    bcs = draw(st.dictionaries(sub, dofs, min_size=1, max_size=3))
    loads = draw(st.dictionaries(sub, st.tuples(*[st.sampled_from([0.0, 5.0, -2.0])] * 3),
                                 max_size=3))
    mode = draw(st.sampled_from(["modal", "static"]))
    return IRModel(
        nodes=tuple(Node(i, 0.5 * x, 0.5 * y) for i, (x, y) in zip(ids, points)),
        elements=tuple(Element(i, k, p, 1 if k == "truss_bar" else 2)
                       for i, k, p in zip(elem_ids, kinds, pairs)),
        materials=(STEEL,), sections=(BAR, replace(BEAM, id=2)),
        boundary_conditions=tuple(BoundaryCondition(n, d) for n, d in bcs.items()),
        loads=tuple(Load(n, *v) for n, v in loads.items()),
        analysis=(AnalysisSpec(mode="modal", modal_count=1) if mode == "modal"
                  else AnalysisSpec()))


def head_prepare(model: IRModel, n_sub: int = 1):
    """``solver._prepare`` as it was before its array passes: dofs, end
    coordinates, sections and materials looked up element by element."""
    index = build_dof_index(model)
    pos = model.node_positions()
    sections = {s.id: s for s in model.sections}
    materials = {m.id: m for m in model.materials}

    def columns(elements: list, kind: str):
        d = len(solver._DOF_NAMES[kind])
        secs = [sections[e.section_id] for e in elements]
        mats = [materials[s.material_id] for s in secs]
        ux = np.array([index[(n, "ux")] for e in elements for n in e.node_ids], dtype=np.int64)
        return (np.array([e.id for e in elements], dtype=np.int64),
                (ux.reshape(-1, 2, 1) + np.arange(d)).reshape(-1, 2 * d),
                np.array([pos[a] + pos[b] for a, b in (e.node_ids for e in elements)],
                         dtype=float).reshape(-1, 4),
                [np.array(v, dtype=float) for v in ([m.youngs_modulus for m in mats],
                                                    [s.area for s in secs],
                                                    [s.moment_of_inertia or 0.0 for s in secs],
                                                    [m.density for m in mats])])

    by_kind: dict[str, list] = {kind: [] for kind in solver._DOF_NAMES}
    for e in sorted(model.elements, key=lambda e: e.id):
        by_kind["truss_bar" if e.kind == "truss_bar" else "frame_beam"].append(e)
    no_inertia = next((e.id for e in by_kind["frame_beam"]
                       if sections[e.section_id].moment_of_inertia is None), None)
    bars = columns(by_kind["truss_bar"], "truss_bar")
    frames = columns(by_kind["frame_beam"], "frame_beam")
    if n_sub > 1 and frames[0].size:
        first_node = max((n.id for n in model.nodes), default=0) + 1
        first_dof, n_inner = len(index), frames[0].size * (n_sub - 1)
        index.update(zip(itertools.product(range(first_node, first_node + n_inner),
                                           solver._DOF_NAMES["frame_beam"]),
                         range(first_dof, first_dof + 3 * n_inner)))
        frames = solver._split(*frames, n_sub, max(e.id for e in model.elements) + 1, first_dof)
    groups = (solver._group("truss_bar", *bars), solver._group("frame_beam", *frames))
    faults = [(int(g.ids[g.L == 0.0][0]), 0, "element {} has zero length")
              for g in groups if np.any(g.L == 0.0)]
    if no_inertia is not None:
        faults.append((no_inertia, 1, "frame element {} has no moment of inertia"))
    if faults:
        element, _, message = min(faults)
        raise AssemblyError(message.format(element))
    f = np.zeros(len(index))
    for l in model.loads:
        f[index[(l.node_id, "ux")]] += l.fx
        f[index[(l.node_id, "uy")]] += l.fy
        if l.mz != 0.0:
            f[index[(l.node_id, "rz")]] += l.mz
    constrained = frozenset(index[(b.node_id, d)] for b in model.boundary_conditions
                            for d in b.sorted_dofs() if (b.node_id, d) in index)
    return index, groups, f, constrained


def head_assemble(model: IRModel, n_sub: int):
    index, groups, f, constrained = head_prepare(model, n_sub)
    pattern = solver._pattern(len(index), groups)
    K = solver._scatter(pattern, [solver._element_stiffness(g) for g in groups])
    return solver.AssembledSystem(dof_index=index, K=K, f=f, constrained=constrained,
                                  groups=groups, pattern=pattern)


ALUMINIUM = replace(STEEL, id=2, youngs_modulus=70e9, density=2700.0)
_TABLE_SECTIONS = (BAR, replace(BEAM, id=2), replace(BEAM, id=3, moment_of_inertia=None),
                   Section(4, 2, 0.02, 2e-6))


@st.composite
def table_models(draw) -> IRModel:
    """``mixed_models`` with node ids beyond int64 among them, nodes moved
    onto others, members repeated, and sections of two materials, one
    section without a moment of inertia."""
    m = draw(mixed_models())
    wide = draw(st.lists(st.one_of(st.integers(1, 60), st.sampled_from([2**63, 2**64 + 5,
                                                                         10**30])),
                         min_size=len(m.nodes), max_size=len(m.nodes), unique=True))
    relabel = dict(zip((n.id for n in m.nodes), wide))
    nodes = [replace(n, id=relabel[n.id]) for n in m.nodes]
    if draw(st.booleans()):  # a node on top of another: zero-length members
        a, b = draw(st.permutations(range(len(nodes))))[:2]
        nodes[a] = replace(nodes[a], x=nodes[b].x, y=nodes[b].y)
    elements = [replace(e, node_ids=tuple(relabel[v] for v in e.node_ids),
                        section_id=draw(st.sampled_from([1, 2, 3, 4])) if draw(st.booleans())
                        else e.section_id) for e in m.elements]
    elements += [replace(e, id=100 + k) for k, e in
                 enumerate(draw(st.lists(st.sampled_from(elements), max_size=3)))]
    return replace(m, nodes=tuple(draw(st.permutations(nodes))),
                   elements=tuple(draw(st.permutations(elements))),
                   materials=(STEEL, ALUMINIUM), sections=_TABLE_SECTIONS,
                   boundary_conditions=tuple(replace(b, node_id=relabel[b.node_id])
                                             for b in m.boundary_conditions),
                   loads=tuple(replace(l, node_id=relabel[l.node_id]) for l in m.loads))


@settings(max_examples=200, deadline=None)
@given(table_models(), st.sampled_from([1, 2, 4]))
def test_element_table_equals_its_previous_algorithm(m, n_sub):
    try:
        want = head_assemble(m, n_sub)
    except AssemblyError as exc:
        with pytest.raises(AssemblyError) as got:
            assemble(m, n_sub)
        assert str(got.value) == str(exc)
        return
    got = assemble(m, n_sub)
    assert_same_system(got, want, n_sub)
    for a, b in zip(got.groups, want.groups):
        for name in a._fields[1:]:
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and x.shape == y.shape, name
            assert x.tobytes() == y.tobytes(), name


class TestSubdivision:
    """Frames split in the element table against the same split in the IR."""

    @pytest.mark.parametrize("n_sub", [1, 2, 4])
    def test_table_split_matches_ir_split(self, suite_dir, n_sub):
        for name, m in oracle_models(suite_dir) + frame_decks():
            refined = subdivide_reference(m, n_sub)
            system = assemble(m, n_sub)
            assert_same_system(system, assemble(refined), (name, n_sub))
            # lengths are math.hypot's, as the solver has always computed them
            pos, ends = refined.node_positions(), {e.id: e.node_ids for e in refined.elements}
            for g in system.groups:
                want = [math.hypot(pos[ends[i][1]][0] - pos[ends[i][0]][0],
                                   pos[ends[i][1]][1] - pos[ends[i][0]][1])
                        for i in g.ids.tolist()]
                assert g.L.tolist() == want, (name, n_sub, g.kind)

    @given(mixed_models())
    def test_solved_dofs_counts_the_split_model(self, m):
        n_sub = solver.DEFAULT_MODAL_SUBDIVISIONS if m.analysis.mode == "modal" else 1
        reference = assemble(subdivide_reference(m, n_sub))
        assert solved_dofs(m) == len(reference.dof_index)
        assert_same_system(assemble(m, n_sub), reference, n_sub)

    def test_static_count_is_the_dof_index(self):
        m = replace(modal_cantilever(), analysis=AnalysisSpec())
        assert solved_dofs(m) == len(build_dof_index(m)) == 6
        assert solved_dofs(modal_cantilever()) == 15

    @pytest.mark.parametrize("nodes, sections, n_sub, message", [
        # the first element in id order fails, zero length before inertia
        (((1, 0.0), (2, 2.0), (3, 2.0)), (BEAM, replace(BEAM, moment_of_inertia=None)), 4,
         "frame element 1 has no moment of inertia"),
        (((1, 0.0), (2, 0.0), (3, 2.0)), (BEAM, replace(BEAM, moment_of_inertia=None)), 4,
         "element 1 has zero length"),
        (((1, 0.0), (2, 2.0), (3, 2.0)), (BEAM, BEAM), 4, "element 2 has zero length"),
        (((1, 0.0), (2, 2.0), (3, 2.0)), (BEAM, BEAM), 1, "element 2 has zero length"),
        # 2 ulp apart from an odd mantissa: the quarter point rounds up to the
        # half point, so the first piece has length and the second (the
        # first new element, id 3) none
        (((1, 1.0 + 2**-52), (2, 1.0 + 3 * 2**-52), (3, 3.0)), (BEAM, BEAM), 4,
         "element 3 has zero length"),
    ])
    def test_faults_name_the_first_failing_element(self, nodes, sections, n_sub, message):
        m = replace(cantilever_model(), nodes=tuple(Node(i, x, 0.0) for i, x in nodes),
                    elements=(Element(1, "frame_beam", (1, 2), 2),
                              Element(2, "frame_beam", (2, 3), 1)),
                    sections=(sections[0], replace(sections[1], id=2)))
        with pytest.raises(AssemblyError) as want:
            assemble(subdivide_reference(m, n_sub))
        with pytest.raises(AssemblyError) as got:
            assemble(m, n_sub)
        assert str(got.value) == str(want.value) == message


def oracle_models(suite_dir) -> list[tuple[str, IRModel]]:
    """The 15 bundled cases and seeded random frames."""
    rng = random.Random(7)
    return ([(d.name, deserialize((d / "truth.ir.json").read_text()))
             for d in sorted(suite_dir.iterdir()) if (d / "truth.ir.json").exists()]
            + [(f"random{i}", random_frame_model(rng)) for i in range(20)])


def dense_free(system):
    free = np.array(sorted(set(range(system.n_dofs)) - system.constrained))
    return free, np.ix_(free, free)


def wheel(spokes: int) -> IRModel:
    """Truss bars from a hub to every node of a rim and along the rim, the
    rim pinned at one node and on a roller opposite: the free hub couples
    with every rim node, so no ordering gives the stiffness a narrow band."""
    rim = [Node(2 + k, math.cos(2 * math.pi * k / spokes), math.sin(2 * math.pi * k / spokes))
           for k in range(spokes)]
    pairs = ([(1, 2 + k) for k in range(spokes)]
             + [(2 + k, 2 + (k + 1) % spokes) for k in range(spokes)])
    return canonicalize(IRModel(
        nodes=(Node(1, 0.0, 0.0), *rim),
        elements=tuple(Element(i + 1, "truss_bar", p, 1) for i, p in enumerate(pairs)),
        materials=(STEEL,), sections=(BAR,),
        boundary_conditions=(BoundaryCondition(2, frozenset({"ux", "uy"})),
                             BoundaryCondition(2 + spokes // 2, frozenset({"uy"}))),
        loads=(Load(1, 0.0, -1e3, 0.0),), analysis=AnalysisSpec("modal", modal_count=3)))


def branch_models(suite_dir) -> list[tuple[str, IRModel, bool]]:
    """The bundled cases, the benchmark's frames and wheels on either side of
    the rule between the factor forms, all in modal mode, with the form each
    takes: True for the band factor."""
    modal = AnalysisSpec("modal", modal_count=3)
    bundled = [(d.name, replace(deserialize((d / "truth.ir.json").read_text()), analysis=modal),
                True) for d in sorted(suite_dir.iterdir()) if (d / "truth.ir.json").exists()]
    frames = [(f"frame{a}x{b}", deserialize(json.dumps(
        workloads.frame(a, b, random.Random(f"branch{a}"))[2])), True)
        for a, b in workloads.FRAME_DECK]
    return bundled + frames + [("wheel50", wheel(50), True), ("wheel100", wheel(100), False),
                               ("wheel500", wheel(500), False)]


def relative_error(x: np.ndarray, want: np.ndarray) -> float:
    return float(np.max(np.abs(x - want)) / np.max(np.abs(want)))


@settings(max_examples=300, deadline=None)
@given(mixed_models())
def test_factor_forms_equal_dense_linear_algebra(m):
    """Both forms solve and find the lowest mode as the dense solvers do,
    and both reject numerically singular stiffness."""
    system = assemble(m)
    dofs = solver._FreeDofs(system.pattern, system.constrained).dofs
    if dofs.size == 0:
        return
    K = system.K.toarray()[np.ix_(dofs, dofs)]
    M = system.M.toarray()[np.ix_(dofs, dofs)]
    low, high = np.linalg.eigvalsh(K)[[0, -1]]
    if low <= 1e-14 * high:
        for form in FORCED:
            with pytest.raises(SingularSystemError):
                forced_free_dofs(system, form).factor(system.K)
        return
    # either side errs by about eps * cond(K): the tolerances hold up to a
    # condition number of 1e5 and grow with it beyond
    scale = max(1.0, high / low / 1e5)
    b = np.linspace(-1.0, 2.0, dofs.size)
    for form in FORCED:
        try:
            factor = forced_free_dofs(system, form).factor(system.K)
        except SingularSystemError:  # allowed only short of well-conditioned
            assert high / low > 1e8, form
            continue
        assert relative_error(factor.solve(b), np.linalg.solve(K, b)) <= 1e-10 * scale, form
        if dofs.size > 1:
            w2, _ = factor.lowest_modes(system.M, 1, np.ones(dofs.size))
            want = scipy.linalg.eigh(K, M, eigvals_only=True, subset_by_index=[0, 0])
            assert w2 == pytest.approx(want, rel=1e-9 * scale), form


class TestDenseOracle:
    """Sparse results against dense linear algebra on the same K and M, in
    each factor form."""

    def test_static_matches_dense_solve(self, suite_dir, monkeypatch):
        for name, m in oracle_models(suite_dir):
            system = assemble(m)
            free, ff = dense_free(system)
            K = system.K.toarray()
            u = np.zeros(system.n_dofs)
            u[free] = np.linalg.solve(K[ff], system.f[free])
            reactions = K @ u - system.f
            index = system.dof_index
            for form, ratio in FORCED.items():
                monkeypatch.setattr(solver, "BAND_RATIO_MAX", ratio)
                r = solve_static(m)
                for got, expected in ((r.displacements, u), (r.reactions, reactions)):
                    want = [expected[index[(nid, d)]] if (nid, d) in index else 0.0
                            for nid in got for d in ("ux", "uy", "rz")]
                    have = [c for v in got.values() for c in v]
                    scale = max(map(abs, want))
                    assert have == pytest.approx(want, rel=1e-9, abs=1e-9 * scale), (name, form)

    def test_modal_matches_dense_eigh(self, suite_dir, monkeypatch):
        n = 3
        for name, m in oracle_models(suite_dir):
            system = assemble(subdivide_reference(m, solver.DEFAULT_MODAL_SUBDIVISIONS))
            free, ff = dense_free(system)
            # the reciprocal problem M x = x K / w^2 puts the lowest modes at
            # the top of its spectrum, where the dense solver is most accurate
            mu, vecs = scipy.linalg.eigh(system.M.toarray()[ff], system.K.toarray()[ff])
            k = min(n, free.size)
            w2, vecs = 1.0 / mu[::-1][:k], vecs[:, ::-1][:, :k]
            freqs = np.sqrt(w2) / (2 * math.pi)
            index = system.dof_index
            translations = [i for (_, d), i in index.items() if d != "rz"]
            for form, ratio in FORCED.items():
                monkeypatch.setattr(solver, "BAND_RATIO_MAX", ratio)
                r = solve_modal(replace(m, analysis=AnalysisSpec("modal", modal_count=n)))
                assert r.frequencies_hz == pytest.approx(freqs, rel=1e-9), (name, form)
                for i, shape in enumerate(r.mode_shapes):
                    phi = np.zeros(system.n_dofs)
                    phi[free] = vecs[:, i]
                    phi /= np.max(np.abs(phi[translations]))  # peak translation +-1
                    want = np.array([phi[index[(nid, d)]] if (nid, d) in index else 0.0
                                     for nid in shape for d in ("ux", "uy", "rz")])
                    have = np.array([c for v in shape.values() for c in v])
                    err = min(np.max(np.abs(have - want)), np.max(np.abs(have + want)))
                    # a repeated eigenvalue (the two-bar apex) has no unique shape
                    gap = np.sort(np.abs(1.0 / mu - w2[i]))[1] / w2[i] if mu.size > 1 else 1.0
                    assert err <= 1e-9 or gap < 1e-6, (name, form, i)

    def test_models_take_their_form_and_match_dense(self, suite_dir):
        for name, m, banded in branch_models(suite_dir):
            system = assemble(m, solver.DEFAULT_MODAL_SUBDIVISIONS)
            free = solver._FreeDofs(system.pattern, system.constrained)
            assert free.banded == banded, name
            factor = free.factor(system.K)
            assert isinstance(factor, solver._BandFactor if banded else solver._SparseFactor), name
            K, M = (A.toarray()[np.ix_(free.dofs, free.dofs)] for A in (system.K, system.M))
            b = np.linspace(-1.0, 2.0, free.size)
            assert relative_error(factor.solve(b), np.linalg.solve(K, b)) <= 1e-10, name
            k = min(3, free.size)
            want = scipy.linalg.eigh(K, M, eigvals_only=True, subset_by_index=[0, k - 1])
            freqs = np.array(solve_modal(m).frequencies_hz)
            assert (2 * math.pi * freqs) ** 2 == pytest.approx(want, rel=1e-9), name
