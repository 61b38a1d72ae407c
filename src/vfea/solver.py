"""Embedded 2D structural kernel: direct stiffness statics, modal analysis,
and ground-structure topology optimization by optimality criteria.

Each element's dofs, geometry, section and material are resolved once per
model into an element table; stiffness assembly, mass assembly, static
stress recovery and the optimizer all read that table. Matrices are stored
dense and factorized directly. The consistent mass matrix is assembled only
when modal analysis asks for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .ir import Element, IRModel, Node
from .validation import restraint_rank

DEFAULT_MODAL_SUBDIVISIONS = 4
AREA_FLOOR_RATIO = 1e-6   # a_min = ratio * a_max
OC_MOVE_LIMIT = 0.2
OC_EXPONENT = 0.5
OC_STOP_TOL = 1e-3        # on max area change, relative to a_max
RESIDUAL_LIMIT = 1e-8     # beyond this the factorization is not trusted
# Translations this close to a mode's peak count as ties for its sign; the
# first in dof order decides, so mirror-image peaks give a stable sign.
PEAK_TIE_RTOL = 1e-9


class AssemblyError(Exception):
    pass


class SingularSystemError(Exception):
    """Stiffness factorization failed: rigid body motion or mechanism."""


class UnsupportedOptimizationError(Exception):
    pass


class _Element(NamedTuple):
    """One element resolved against its model: global dofs, length and
    direction cosines, and section and material properties."""
    id: int
    kind: str
    dofs: list[int]
    L: float
    c: float
    s: float
    E: float
    A: float
    I: float | None
    rho: float


@dataclass(frozen=True)
class AssembledSystem:
    dof_index: dict[tuple[int, str], int]
    K: np.ndarray
    f: np.ndarray
    constrained: frozenset[int]
    elements: tuple[_Element, ...]

    @property
    def n_dofs(self) -> int:
        return self.K.shape[0]

    @cached_property
    def M(self) -> np.ndarray:
        """Consistent mass matrix, assembled on first access."""
        return _scatter(self.n_dofs, self.elements, map(_element_mass, self.elements))


@dataclass(frozen=True)
class StaticResult:
    displacements: dict[int, tuple[float, float, float]]
    reactions: dict[int, tuple[float, float, float]]
    axial_force: dict[int, float]
    axial_stress: dict[int, float]
    frame_end_forces: dict[int, tuple[float, ...]]
    equilibrium_residual: float


@dataclass(frozen=True)
class ModalResult:
    frequencies_hz: tuple[float, ...]
    mode_shapes: tuple[dict[int, tuple[float, float, float]], ...]
    note: str | None = None


@dataclass(frozen=True)
class TopoResult:
    areas: dict[int, float]
    compliance_history: tuple[float, ...]
    final_volume_fraction: float


def _truss_stiffness(ea_over_l: float, c: float, s: float) -> np.ndarray:
    cc, ss, cs = c * c, s * s, c * s
    block = np.array([[cc, cs], [cs, ss]])
    k = np.empty((4, 4))
    k[:2, :2] = block
    k[2:, 2:] = block
    k[:2, 2:] = -block
    k[2:, :2] = -block
    return ea_over_l * k


def _truss_mass(rho_a_l: float) -> np.ndarray:
    # translational consistent mass; isotropic, so no rotation needed
    m = rho_a_l / 6.0
    return m * np.array([[2, 0, 1, 0],
                         [0, 2, 0, 1],
                         [1, 0, 2, 0],
                         [0, 1, 0, 2]], dtype=float)


def _frame_transform(c: float, s: float) -> np.ndarray:
    r = np.array([[c, s, 0], [-s, c, 0], [0, 0, 1]], dtype=float)
    t = np.zeros((6, 6))
    t[:3, :3] = r
    t[3:, 3:] = r
    return t


def _frame_stiffness_local(E: float, A: float, I: float, L: float) -> np.ndarray:
    ax = E * A / L
    b = E * I / L**3
    return np.array([
        [ax, 0, 0, -ax, 0, 0],
        [0, 12 * b, 6 * b * L, 0, -12 * b, 6 * b * L],
        [0, 6 * b * L, 4 * b * L**2, 0, -6 * b * L, 2 * b * L**2],
        [-ax, 0, 0, ax, 0, 0],
        [0, -12 * b, -6 * b * L, 0, 12 * b, -6 * b * L],
        [0, 6 * b * L, 2 * b * L**2, 0, -6 * b * L, 4 * b * L**2],
    ])


def _frame_mass_local(rho: float, A: float, L: float) -> np.ndarray:
    m = rho * A * L
    return (m / 420.0) * np.array([
        [140, 0, 0, 70, 0, 0],
        [0, 156, 22 * L, 0, 54, -13 * L],
        [0, 22 * L, 4 * L**2, 0, 13 * L, -3 * L**2],
        [70, 0, 0, 140, 0, 0],
        [0, 54, 13 * L, 0, 156, -22 * L],
        [0, -13 * L, -3 * L**2, 0, -22 * L, 4 * L**2],
    ])


def _element_stiffness(e: _Element) -> np.ndarray:
    if e.kind == "truss_bar":
        return _truss_stiffness(e.E * e.A / e.L, e.c, e.s)
    t = _frame_transform(e.c, e.s)
    return t.T @ _frame_stiffness_local(e.E, e.A, e.I, e.L) @ t


def _element_mass(e: _Element) -> np.ndarray:
    if e.kind == "truss_bar":
        return _truss_mass(e.rho * e.A * e.L)
    t = _frame_transform(e.c, e.s)
    return t.T @ _frame_mass_local(e.rho, e.A, e.L) @ t


def build_dof_index(model: IRModel) -> dict[tuple[int, str], int]:
    """Allocate global dof indices: ux, uy at every node; rz only where it can
    carry stiffness (frame-connected), load, or an explicit constraint."""
    frame_nodes = {n for e in model.elements if e.kind == "frame_beam" for n in e.node_ids}
    rz_nodes = set(frame_nodes)
    rz_nodes |= {l.node_id for l in model.loads if l.mz != 0.0}
    rz_nodes |= {b.node_id for b in model.boundary_conditions if "rz" in b.constrained_dofs}
    index: dict[tuple[int, str], int] = {}
    for n in sorted(model.nodes, key=lambda n: n.id):
        index[(n.id, "ux")] = len(index)
        index[(n.id, "uy")] = len(index)
        if n.id in rz_nodes:
            index[(n.id, "rz")] = len(index)
    return index


def _prepare(model: IRModel) -> tuple[dict[tuple[int, str], int], tuple[_Element, ...],
                                      np.ndarray, frozenset[int]]:
    """Dof index, element table, load vector and constrained dofs of a model."""
    index = build_dof_index(model)
    pos = model.node_positions()
    sections = {s.id: s for s in model.sections}
    materials = {m.id: m for m in model.materials}
    elements = []
    for e in model.elements:
        (x1, y1), (x2, y2) = pos[e.node_ids[0]], pos[e.node_ids[1]]
        dx, dy = x2 - x1, y2 - y1
        L = math.hypot(dx, dy)
        if L == 0.0:
            raise AssemblyError(f"element {e.id} has zero length")
        sec = sections[e.section_id]
        mat = materials[sec.material_id]
        if e.kind == "truss_bar":
            dof_names = ("ux", "uy")
        elif sec.moment_of_inertia is None:
            raise AssemblyError(f"frame element {e.id} has no moment of inertia")
        else:
            dof_names = ("ux", "uy", "rz")
        dofs = [index[(n, d)] for n in e.node_ids for d in dof_names]
        elements.append(_Element(e.id, e.kind, dofs, L, dx / L, dy / L, mat.youngs_modulus,
                                 sec.area, sec.moment_of_inertia, mat.density))

    f = np.zeros(len(index))
    for l in model.loads:
        f[index[(l.node_id, "ux")]] += l.fx
        f[index[(l.node_id, "uy")]] += l.fy
        if l.mz != 0.0:
            f[index[(l.node_id, "rz")]] += l.mz

    constrained = frozenset(
        index[(b.node_id, d)]
        for b in model.boundary_conditions
        for d in b.sorted_dofs()
        if (b.node_id, d) in index
    )
    return index, tuple(elements), f, constrained


def _scatter(n: int, elements, matrices) -> np.ndarray:
    """Sum element matrices into a dense n x n global matrix."""
    out = np.zeros((n, n))
    for e, m in zip(elements, matrices):
        out[np.ix_(e.dofs, e.dofs)] += m
    return out


def assemble(model: IRModel) -> AssembledSystem:
    """Direct stiffness assembly of K and the load vector; the consistent
    mass matrix ``M`` is assembled when first read."""
    index, elements, f, constrained = _prepare(model)
    K = _scatter(len(index), elements, map(_element_stiffness, elements))
    return AssembledSystem(dof_index=index, K=K, f=f, constrained=constrained,
                           elements=elements)


def _solve_free(K: np.ndarray, f: np.ndarray, free: np.ndarray) -> tuple[np.ndarray, float]:
    """Factorize the free partition and back-substitute; returns (u_full, residual)."""
    u = np.zeros(K.shape[0])
    if free.size == 0:
        return u, 0.0
    Kff = K[np.ix_(free, free)]
    ff = f[free]
    try:
        factor = scipy.linalg.cho_factor(Kff, check_finite=False)
        uf = scipy.linalg.cho_solve(factor, ff, check_finite=False)
    except scipy.linalg.LinAlgError:
        raise SingularSystemError("rigid body motion or mechanism") from None
    if not np.all(np.isfinite(uf)):
        raise SingularSystemError("rigid body motion or mechanism")
    residual = float(np.linalg.norm(Kff @ uf - ff) / max(np.linalg.norm(ff), 1.0))
    if residual > RESIDUAL_LIMIT:
        raise SingularSystemError(f"ill-conditioned system, residual {residual:.2e}")
    u[free] = uf
    return u, residual


def _free_indices(n_dofs: int, constrained: frozenset[int]) -> np.ndarray:
    return np.array(sorted(set(range(n_dofs)) - constrained), dtype=int)


def _node_vector(index: dict[tuple[int, str], int], u: np.ndarray,
                 node_id: int) -> tuple[float, float, float]:
    return (float(u[index[(node_id, "ux")]]),
            float(u[index[(node_id, "uy")]]),
            float(u[index[(node_id, "rz")]]) if (node_id, "rz") in index else 0.0)


def solve_static(model: IRModel) -> StaticResult:
    system = assemble(model)
    index = system.dof_index
    u, residual = _solve_free(system.K, system.f, _free_indices(system.n_dofs, system.constrained))

    reactions_full = system.K @ u - system.f
    displacements = {n.id: _node_vector(index, u, n.id) for n in model.nodes}
    reactions: dict[int, tuple[float, float, float]] = {}
    for b in model.boundary_conditions:
        r = {d: float(reactions_full[index[(b.node_id, d)]])
             for d in b.sorted_dofs() if (b.node_id, d) in index}
        reactions[b.node_id] = (r.get("ux", 0.0), r.get("uy", 0.0), r.get("rz", 0.0))

    axial_force: dict[int, float] = {}
    axial_stress: dict[int, float] = {}
    frame_end_forces: dict[int, tuple[float, ...]] = {}
    for e in system.elements:
        ue = u[e.dofs]
        if e.kind == "truss_bar":
            stretch = (ue[2] - ue[0]) * e.c + (ue[3] - ue[1]) * e.s
            force = e.E * e.A / e.L * stretch
            axial_force[e.id] = float(force)
            axial_stress[e.id] = float(force / e.A)
        else:
            t = _frame_transform(e.c, e.s)
            local = _frame_stiffness_local(e.E, e.A, e.I, e.L) @ (t @ ue)
            frame_end_forces[e.id] = tuple(float(v) for v in local)

    return StaticResult(displacements=displacements, reactions=reactions,
                        axial_force=axial_force, axial_stress=axial_stress,
                        frame_end_forces=frame_end_forces, equilibrium_residual=residual)


def subdivide_frames(model: IRModel, n_sub: int) -> IRModel:
    """Split every frame member into n_sub elements with interior nodes.

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


def solve_modal(model: IRModel, n: int,
                subdivisions: int = DEFAULT_MODAL_SUBDIVISIONS) -> ModalResult:
    """Lowest n natural frequencies and shapes of the restrained structure.

    The generalized problem K phi = w^2 M phi on the free dofs of the
    subdivided model goes to LAPACK's symmetric-definite solver. Each shape
    is scaled so that its largest-magnitude translation is +1.
    """
    if n < 1:
        raise ValueError("modal count must be >= 1")
    if restraint_rank(model) < 3:
        raise SingularSystemError("insufficient restraint for modal analysis")
    refined = subdivide_frames(model, subdivisions)
    system = assemble(refined)
    free = _free_indices(system.n_dofs, system.constrained)
    if free.size == 0:
        raise SingularSystemError("no free dofs")
    ff = np.ix_(free, free)
    try:
        w2, vecs = scipy.linalg.eigh(system.K[ff], system.M[ff], check_finite=False)
    except scipy.linalg.LinAlgError:
        raise SingularSystemError("mass matrix not positive definite") from None

    scale = max(float(w2[-1]), 1.0)
    if w2[0] <= 1e-12 * scale:
        raise SingularSystemError("mechanism detected: non-positive vibration mode")

    note = None
    if n > free.size:
        note = f"requested {n} modes but only {free.size} free dofs are available"
        n = free.size
    freqs = tuple(float(math.sqrt(w) / (2 * math.pi)) for w in w2[:n])

    index = system.dof_index
    translations = np.array([i for (_, d), i in index.items() if d != "rz"])
    shapes: list[dict[int, tuple[float, float, float]]] = []
    for i in range(n):
        phi = np.zeros(system.n_dofs)
        phi[free] = vecs[:, i]
        t = phi[translations]
        peak = float(np.max(np.abs(t)))
        if peak > 0:
            lead = t[np.argmax(np.abs(t) >= (1.0 - PEAK_TIE_RTOL) * peak)]
            phi[free] /= math.copysign(peak, lead)  # constrained dofs stay +0.0
        shapes.append({nd.id: _node_vector(index, phi, nd.id) for nd in model.nodes})
    return ModalResult(frequencies_hz=freqs, mode_shapes=tuple(shapes), note=note)


def _oc_update(x: np.ndarray, neg_sens: np.ndarray, lengths: np.ndarray,
               target_volume: float, x_min: float) -> np.ndarray:
    """Optimality-criteria step: multiplicative update with a bisected
    Lagrange multiplier enforcing the length-weighted volume constraint."""
    lower = np.maximum(x_min, x - OC_MOVE_LIMIT)
    upper = np.minimum(1.0, x + OC_MOVE_LIMIT)

    def candidate(lam: float) -> np.ndarray:
        with np.errstate(divide="ignore"):
            b = neg_sens / (lam * lengths)
        return np.clip(x * np.power(np.maximum(b, 0.0), OC_EXPONENT), lower, upper)

    l1, l2 = 0.0, 1e-6
    while float(candidate(l2) @ lengths) > target_volume:
        l2 *= 10.0
        if l2 > 1e40:
            break
    for _ in range(200):
        if (l2 - l1) <= 1e-12 * l2:
            break
        lmid = 0.5 * (l1 + l2)
        if float(candidate(lmid) @ lengths) > target_volume:
            l1 = lmid
        else:
            l2 = lmid
    return candidate(l2)


def optimize_topology(model: IRModel, volfrac: float | None = None,
                      max_iters: int | None = None) -> TopoResult:
    """Minimum-compliance sizing of a truss ground structure.

    Design variables are normalized bar areas x in [1e-6, 1] of the largest
    section area; initialization is the uniform conservative prior
    x = volfrac. Each iteration rescales the unit-area element stiffnesses,
    which also give the sensitivities.
    """
    if any(e.kind != "truss_bar" for e in model.elements):
        raise UnsupportedOptimizationError("ground structure must contain only truss bars")
    if volfrac is None:
        volfrac = model.analysis.opt_volume_fraction
    if volfrac is None:
        volfrac = 0.5
    if not (0.0 < volfrac <= 1.0):
        raise UnsupportedOptimizationError(f"volume fraction {volfrac} outside (0, 1]")
    if max_iters is None:
        max_iters = model.analysis.opt_max_iterations or 50

    index, elements, f, constrained = _prepare(model)
    elems = sorted(elements, key=lambda e: e.id)
    a_max = max(e.A for e in elems)
    lengths = np.array([e.L for e in elems])
    target_volume = volfrac * float(lengths.sum())  # in units of a_max
    unit_stiffness = [_element_stiffness(e._replace(A=1.0)) for e in elems]
    free = _free_indices(len(index), constrained)

    def displacements(xv: np.ndarray) -> tuple[np.ndarray, float]:
        K = _scatter(len(index), elems,
                     ((xe * a_max) * k0 for xe, k0 in zip(xv, unit_stiffness)))
        u, _ = _solve_free(K, f, free)
        return u, float(f @ u)

    x = np.full(len(elems), volfrac)
    history: list[float] = []
    for _ in range(max_iters):
        u, compliance = displacements(x)
        history.append(compliance)
        neg_sens = np.array([
            a_max * float(u[e.dofs] @ (k0 @ u[e.dofs])) for e, k0 in zip(elems, unit_stiffness)
        ])  # -dC/dx_e, always >= 0
        x_new = _oc_update(x, neg_sens, lengths, target_volume, AREA_FLOOR_RATIO)
        change = float(np.max(np.abs(x_new - x)))
        x = x_new
        if change < OC_STOP_TOL:
            break

    _, final_compliance = displacements(x)
    history.append(final_compliance)
    areas = {e.id: float(xe * a_max) for e, xe in zip(elems, x)}
    final_vf = float(x @ lengths) / float(lengths.sum())
    return TopoResult(areas=areas, compliance_history=tuple(history),
                      final_volume_fraction=final_vf)
