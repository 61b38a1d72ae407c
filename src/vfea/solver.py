"""Embedded 2D structural kernel: direct stiffness statics, modal analysis,
and ground-structure topology optimization by optimality criteria.

Each model's elements are resolved once into an element table, one group of
arrays per element kind (dofs, length, direction cosines, section and
material), built column by column in one pass over the elements. Frame
refinement happens in that table: for modal analysis each frame member's
columns are split into equal pieces, with interior points, dofs and ids
computed as arrays, so no refined model is ever built and no second dof
index either. Element stiffness and mass matrices are built a whole group
at a time and summed through COO row and column indices, also computed once
per model, into sparse CSC matrices; the consistent mass matrix is
assembled only when modal analysis asks for it.

The free partition of K is ordered by reverse Cuthill-McKee (Cuthill &
McKee 1969) and factored in one of two forms. When the ordered band is
narrow, at most ``BAND_RATIO_MAX`` band cells, (band + 1) * dofs, per
stored entry of the free partition, LAPACK factors it as a band Cholesky
factor (dpbtrf), filled from K's data vector without a submatrix gather.
Otherwise, as when one hub node couples with most others and the band is
nearly full, SuperLU factors it in symmetric mode. The threshold is the
lowest crossover measured, with the default two BLAS threads: below 12.5
cells per entry the band form won on every truss grid, frame and wheel
tried (up to 12699 free dofs); from there on grids and frames of 10299 to
20019 free dofs the two forms trade places from run to run, and on wheels
of spokes around a hub SuperLU wins from 28-32 cells per entry. Either
form stays within rounding of the other, so the rule only moves time.

Both forms keep one mechanism rule: a pivot at or below ``PIVOT_RTOL``
times its own diagonal entry of the ordered free stiffness, or a factor
that breaks off for want of a positive pivot, means rigid body motion or a
mechanism. Valid models keep every such ratio above 5e-5; an unbraced
square turned by any half degree leaves one below 2e-13.

Statics back-substitutes with the factor, and the optimizer factors each
iteration's rescaled stiffness in the form chosen once per model. Modal
analysis on the band factor solves the standard symmetric problem
(L^-1 M L^-T) y = y / w^2 by ARPACK's Lanczos iteration for its largest
eigenvalues (Bathe, Finite Element Procedures, the eigensolution chapter),
two triangular band solves and one mass product a step; on the SuperLU
factor it runs ARPACK's shift-invert Lanczos iteration about zero.

Measured on a 2-core x86 VM (Python 3.11, numpy 2.4, scipy 1.17, one
process, default BLAS threads, best of repeated calls; the host's speed
varies about twofold from hour to hour): ``solve_static`` takes ~8 ms
on a 1722-dof truss grid (~11 ms with SuperLU) and ~0.2 s on a 20022-dof
one, which takes SuperLU; ``solve_modal`` finds the three lowest modes of
a 2187-dof frame in ~10 ms (~13 ms with SuperLU and shift-invert) and of
a 17163-dof frame, which takes SuperLU, in ~0.1 s.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.csgraph
import scipy.sparse.linalg

from .ir import (_ID, _KIND, _SECTION_ID, AnalysisSpec, IRModel, _coordinates, _endpoints,
                 _rows, topology_params)
from .validation import restraint_rank

DEFAULT_MODAL_SUBDIVISIONS = 4
AREA_FLOOR_RATIO = 1e-6   # a_min = ratio * a_max
OC_MOVE_LIMIT = 0.2
OC_EXPONENT = 0.5
OC_STOP_TOL = 1e-3        # on max area change, relative to a_max
RESIDUAL_LIMIT = 1e-8     # beyond this the factorization is not trusted
PIVOT_RTOL = 1e-10        # pivot / its diagonal entry at or below this: a mechanism
BAND_RATIO_MAX = 12.0     # band cells per stored entry beyond which SuperLU factors
VOLUME_SLACK = 1e-6       # accepted excess of an optimized volume fraction over its target
# Translations this close to a mode's peak count as ties for its sign; the
# first in dof order decides, so mirror-image peaks give a stable sign.
PEAK_TIE_RTOL = 1e-9
# Seed of the Lanczos starting vector: ARPACK's own default start vector
# continues one random stream across calls, so reruns would differ in the
# last digits.
LANCZOS_SEED = 0

_DOF_NAMES = {"truss_bar": ("ux", "uy"), "frame_beam": ("ux", "uy", "rz")}


class AssemblyError(Exception):
    pass


class SingularSystemError(Exception):
    """Stiffness factorization failed: rigid body motion or mechanism."""


class UnsupportedOptimizationError(Exception):
    pass


class _Group(NamedTuple):
    """The elements of one kind resolved against their model, in id order:
    ids and per-element properties of shape (m,), global dofs (m, d)."""
    kind: str
    ids: np.ndarray
    dofs: np.ndarray
    L: np.ndarray
    c: np.ndarray
    s: np.ndarray
    E: np.ndarray
    A: np.ndarray
    I: np.ndarray
    rho: np.ndarray


class _Pattern(NamedTuple):
    """CSC structure of an n x n global matrix, and the slot in its data
    vector of each entry of the element matrices, concatenated in order."""
    n: int
    indices: np.ndarray
    indptr: np.ndarray
    slot: np.ndarray


@dataclass(frozen=True)
class AssembledSystem:
    dof_index: dict[tuple[int, str], int]
    K: scipy.sparse.csc_array
    f: np.ndarray
    constrained: frozenset[int]
    groups: tuple[_Group, ...]
    pattern: _Pattern

    @property
    def n_dofs(self) -> int:
        return self.K.shape[0]

    @cached_property
    def M(self) -> scipy.sparse.csc_array:
        """Consistent mass matrix, assembled on first access."""
        return _scatter(self.pattern, [_element_mass(g) for g in self.groups])


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


def _truss_stiffness(ea_over_l: np.ndarray, c: np.ndarray, s: np.ndarray) -> np.ndarray:
    cc, ss, cs = c * c, s * s, c * s
    block = np.stack([np.stack([cc, cs], -1), np.stack([cs, ss], -1)], -2)
    return ea_over_l[:, None, None] * np.block([[block, -block], [-block, block]])


# translational consistent mass; isotropic, so no rotation needed
_TRUSS_MASS = np.array([[2, 0, 1, 0],
                        [0, 2, 0, 1],
                        [1, 0, 2, 0],
                        [0, 1, 0, 2]], dtype=float)


def _frame_transform(c: np.ndarray, s: np.ndarray) -> np.ndarray:
    t = np.zeros((c.size, 6, 6))
    for k in (0, 3):
        t[:, k, k] = t[:, k + 1, k + 1] = c
        t[:, k, k + 1] = s
        t[:, k + 1, k] = -s
        t[:, k + 2, k + 2] = 1.0
    return t


def _stacked(rows: list[list]) -> np.ndarray:
    """(m, 6, 6) array from a 6 x 6 nested list of (m,) arrays and scalars."""
    entries = np.broadcast_arrays(*(v for r in rows for v in r))
    return np.stack(entries, axis=-1).reshape(-1, 6, 6)


def _frame_stiffness_local(E: np.ndarray, A: np.ndarray, I: np.ndarray,
                           L: np.ndarray) -> np.ndarray:
    ax = E * A / L
    b = E * I / L**3
    return _stacked([
        [ax, 0, 0, -ax, 0, 0],
        [0, 12 * b, 6 * b * L, 0, -12 * b, 6 * b * L],
        [0, 6 * b * L, 4 * b * L**2, 0, -6 * b * L, 2 * b * L**2],
        [-ax, 0, 0, ax, 0, 0],
        [0, -12 * b, -6 * b * L, 0, 12 * b, -6 * b * L],
        [0, 6 * b * L, 2 * b * L**2, 0, -6 * b * L, 4 * b * L**2],
    ])


def _frame_mass_local(rho: np.ndarray, A: np.ndarray, L: np.ndarray) -> np.ndarray:
    m = rho * A * L
    return (m / 420.0)[:, None, None] * _stacked([
        [140, 0, 0, 70, 0, 0],
        [0, 156, 22 * L, 0, 54, -13 * L],
        [0, 22 * L, 4 * L**2, 0, 13 * L, -3 * L**2],
        [70, 0, 0, 140, 0, 0],
        [0, 54, 13 * L, 0, 156, -22 * L],
        [0, -13 * L, -3 * L**2, 0, -22 * L, 4 * L**2],
    ])


def _element_stiffness(g: _Group) -> np.ndarray:
    """Global stiffness matrices of a group, shape (m, d, d)."""
    if g.kind == "truss_bar":
        return _truss_stiffness(g.E * g.A / g.L, g.c, g.s)
    t = _frame_transform(g.c, g.s)
    return t.transpose(0, 2, 1) @ _frame_stiffness_local(g.E, g.A, g.I, g.L) @ t


def _element_mass(g: _Group) -> np.ndarray:
    """Global consistent mass matrices of a group, shape (m, d, d)."""
    if g.kind == "truss_bar":
        return (g.rho * g.A * g.L / 6.0)[:, None, None] * _TRUSS_MASS
    t = _frame_transform(g.c, g.s)
    return t.transpose(0, 2, 1) @ _frame_mass_local(g.rho, g.A, g.L) @ t


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


def solved_dofs(model: IRModel) -> int:
    """Dofs the solver assembles for the model's analysis, constrained ones
    included: modal analysis splits each frame member into
    ``DEFAULT_MODAL_SUBDIVISIONS`` elements, whose interior nodes carry ux,
    uy and rz each."""
    n = len(build_dof_index(model))
    if model.analysis.mode == "modal":
        frames = sum(e.kind != "truss_bar" for e in model.elements)
        n += 3 * (DEFAULT_MODAL_SUBDIVISIONS - 1) * frames
    return n


def _split(ids: np.ndarray, dofs: np.ndarray, ends: np.ndarray, props: list[np.ndarray],
           n_sub: int, first_id: int, first_dof: int):
    """Frame columns with each member split into n_sub equal pieces.

    Interior point i of a member is ``x1 + (i / n_sub) * (x2 - x1)`` and has
    the dofs ux, uy, rz from ``first_dof`` on, in (member, point) order. A
    member's first piece keeps its id and row; the other pieces follow all
    members, in (member, piece) order, with ids from ``first_id``.
    """
    m, k = ids.size, n_sub - 1
    t = np.arange(1, n_sub) / n_sub
    x1, y1, x2, y2 = (ends[:, j:j + 1] for j in range(4))
    xs = np.concatenate([x1, x1 + t * (x2 - x1), x2], axis=1)    # (m, n_sub + 1)
    ys = np.concatenate([y1, y1 + t * (y2 - y1), y2], axis=1)
    inner = first_dof + np.arange(3 * m * k, dtype=np.int64).reshape(m, k, 3)
    chain = np.concatenate([dofs[:, None, :3], inner, dofs[:, None, 3:]], axis=1)

    def rows(a: np.ndarray) -> np.ndarray:  # (m, n_sub, ...) pieces in table order
        return np.concatenate([a[:, 0], a[:, 1:].reshape(m * k, *a.shape[2:])])

    piece_ends = np.stack([xs[:, :-1], ys[:, :-1], xs[:, 1:], ys[:, 1:]], axis=-1)
    return (np.concatenate([ids, np.arange(first_id, first_id + m * k, dtype=np.int64)]),
            rows(np.concatenate([chain[:, :-1], chain[:, 1:]], axis=-1)),
            rows(piece_ends), [np.concatenate([p, np.repeat(p, k)]) for p in props])


def _group(kind: str, ids: np.ndarray, dofs: np.ndarray, ends: np.ndarray,
           props: list[np.ndarray]) -> _Group:
    dx, dy = ends[:, 2] - ends[:, 0], ends[:, 3] - ends[:, 1]
    # math.hypot, not np.hypot: the two differ in the last bit for some pairs
    L = np.fromiter(map(math.hypot, dx.tolist(), dy.tolist()), float, dx.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        return _Group(kind, ids, dofs, L, dx / L, dy / L, *props)


def _prepare(model: IRModel, n_sub: int = 1) -> tuple[dict[tuple[int, str], int],
                                                      tuple[_Group, _Group],
                                                      np.ndarray, frozenset[int]]:
    """Dof index, element table (truss group, frame group), load vector and
    constrained dofs of a model with each frame member split into ``n_sub``
    elements.

    The split model is the one an IR-level refinement would give: interior
    nodes numbered from max node id + 1 and their ux, uy, rz dofs after the
    model's own, new elements numbered from max element id + 1, both in
    (member id, piece) order. Its matrices are therefore bit-identical to
    those of that model, without building it. Truss bars are never split:
    an interior truss node carries no transverse stiffness and would
    introduce a spurious mechanism.
    """
    index = build_dof_index(model)
    nodes = sorted(model.nodes, key=_ID)
    ids = [n.id for n in nodes]
    # a node's dofs are consecutive from its ux, rz last where it has one
    ux = np.fromiter(map(index.__getitem__, zip(ids, itertools.repeat("ux"))), np.int64,
                     len(ids))
    xy = _coordinates(nodes)
    sections = {s.id: s for s in model.sections}
    materials = {m.id: m for m in model.materials}

    elements = sorted(model.elements, key=_ID)
    element_ids = np.array([e.id for e in elements], dtype=np.int64)
    ends = _rows(ids, _endpoints(elements)).reshape(-1, 2)
    # E, A, I, rho of each section the elements use, and whether it has no I
    used = [sections[k] for k in dict.fromkeys(map(_SECTION_ID, elements))]
    table = np.array([(materials[s.material_id].youngs_modulus, s.area,
                       s.moment_of_inertia or 0.0, materials[s.material_id].density,
                       s.moment_of_inertia is None) for s in used], float).reshape(-1, 5)
    props = table[_rows([s.id for s in used], map(_SECTION_ID, elements))]
    is_bar = np.fromiter(map("truss_bar".__eq__, map(_KIND, elements)), bool, len(elements))

    def columns(mask: np.ndarray, kind: str):
        """ids (m,), dofs (m, d), end coordinates x1 y1 x2 y2 (m, 4), and
        E, A, I, rho (m,) of the masked elements, which are of one kind."""
        d = len(_DOF_NAMES[kind])
        rows = ends[mask]
        return (element_ids[mask], (ux[rows].reshape(-1, 2, 1) + np.arange(d)).reshape(-1, 2 * d),
                xy[rows].reshape(-1, 4), [props[mask, k] for k in range(4)])

    no_inertia = element_ids[~is_bar & (props[:, 4] == 1.0)][:1].tolist()
    bars = columns(is_bar, "truss_bar")
    frames = columns(~is_bar, "frame_beam")
    if n_sub > 1 and frames[0].size:
        first_node = max((n.id for n in model.nodes), default=0) + 1
        first_dof, n_inner = len(index), frames[0].size * (n_sub - 1)
        index.update(zip(itertools.product(range(first_node, first_node + n_inner),
                                           _DOF_NAMES["frame_beam"]),
                         range(first_dof, first_dof + 3 * n_inner)))
        frames = _split(*frames, n_sub, max(e.id for e in model.elements) + 1, first_dof)
    groups = (_group("truss_bar", *bars), _group("frame_beam", *frames))

    # the first element in id order with zero length or no inertia, zero length
    # first when one element has both
    faults = [(int(g.ids[g.L == 0.0][0]), 0, "element {} has zero length")
              for g in groups if np.any(g.L == 0.0)]
    if no_inertia:
        faults.append((no_inertia[0], 1, "frame element {} has no moment of inertia"))
    if faults:
        element, _, message = min(faults)
        raise AssemblyError(message.format(element))

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
    return index, groups, f, constrained


def _pattern(n: int, groups) -> _Pattern:
    """Sparsity pattern of the groups' element matrices: the COO row and
    column of each entry, reduced once to CSC order."""
    # column * n + row of entry (i, j) of each element matrix, in that order
    keys = np.concatenate([(g.dofs[:, None, :] * n + g.dofs[:, :, None]).ravel()
                           for g in groups])
    # np.unique(keys, return_inverse=True) at about half its cost
    order = keys.argsort()
    keys = keys[order]
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    slot = np.empty(keys.size, dtype=np.int64)
    slot[order] = np.cumsum(first) - 1
    keys = keys[first]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
    return _Pattern(n, keys % n, indptr, slot)


def _scatter(p: _Pattern, matrices) -> scipy.sparse.csc_array:
    """Sum element matrices, one (m, d, d) array per group of the pattern,
    into a global CSC matrix; each entry accumulates in element order."""
    data = np.bincount(p.slot, weights=np.concatenate([m.ravel() for m in matrices]),
                       minlength=p.indices.size)
    return scipy.sparse.csc_array((data, p.indices, p.indptr), shape=(p.n, p.n))


def assemble(model: IRModel, n_sub: int = 1) -> AssembledSystem:
    """Direct stiffness assembly of K and the load vector, with each frame
    member split into ``n_sub`` elements; the consistent mass matrix ``M``
    is assembled when first read."""
    index, groups, f, constrained = _prepare(model, n_sub)
    pattern = _pattern(len(index), groups)
    K = _scatter(pattern, [_element_stiffness(g) for g in groups])
    return AssembledSystem(dof_index=index, K=K, f=f, constrained=constrained,
                           groups=groups, pattern=pattern)


def _mechanism_rule(pivots: np.ndarray, diagonal: np.ndarray) -> None:
    """The one test every factor form applies: a pivot at or below
    ``PIVOT_RTOL`` times its own diagonal entry of the ordered free
    stiffness, or not finite, means rigid body motion or a mechanism."""
    if not (np.all(pivots > PIVOT_RTOL * np.abs(diagonal)) and np.all(np.isfinite(pivots))):
        raise SingularSystemError("rigid body motion or mechanism")


class _FreeDofs:
    """The free dofs of a sparsity pattern, and which factor form their
    stiffness gets.

    ``dofs`` holds them in increasing order, the order of every free vector
    a factor takes or returns. ``banded`` is the rule between the two factor
    forms: band cells, (band + 1) * dofs, at most ``BAND_RATIO_MAX`` times
    the stored entries of the free partition, for the band of its reverse
    Cuthill-McKee order. When even the narrowest band any order could give
    breaks the rule, no order is computed. Otherwise ``order`` lists the
    dofs, as positions in ``dofs``, in the reverse Cuthill-McKee order of
    the pattern's graph, constrained dofs dropped, and ``band`` is the
    half-bandwidth of the free partition in that order. When the rule holds
    for it, ``cells`` and ``slots`` say where each stored entry of a matrix
    on the pattern, ``slots`` into its data vector, lands in the lower band
    storage of that partition, flattened as a (dofs, band + 1) C-order
    array.
    """

    def __init__(self, pattern: _Pattern, constrained: frozenset[int]):
        is_free = np.ones(pattern.n, dtype=bool)
        is_free[list(constrained)] = False
        self.dofs = np.flatnonzero(is_free)
        self.size = self.dofs.size
        columns = np.repeat(np.arange(pattern.n), np.diff(pattern.indptr))
        stored = is_free[pattern.indices] & is_free[columns]
        n_stored = np.count_nonzero(stored)
        # in any order, a column with c stored entries has one at least c // 2
        # off the diagonal
        widest = int(np.bincount(columns[stored], minlength=1).max())
        self.banded = (widest // 2 + 1) * self.size <= BAND_RATIO_MAX * n_stored
        if not self.banded:
            return
        graph = scipy.sparse.csr_array((np.ones(pattern.indices.size), pattern.indices,
                                        pattern.indptr), shape=(pattern.n, pattern.n))
        rcm = scipy.sparse.csgraph.reverse_cuthill_mckee(graph, symmetric_mode=True)
        ordered = rcm[is_free[rcm]]
        self.order = (np.cumsum(is_free) - 1)[ordered]
        position = np.full(pattern.n, -1, dtype=np.int64)
        position[ordered] = np.arange(self.size)
        rows, cols = position[pattern.indices], position[columns]
        lower = (rows >= cols) & (cols >= 0)
        offset = rows[lower] - cols[lower]
        self.band = int(offset.max(initial=0))
        self.banded = (self.band + 1) * self.size <= BAND_RATIO_MAX * n_stored
        if self.banded:
            self.slots = np.flatnonzero(lower)
            self.cells = cols[lower] * (self.band + 1) + offset

    def factor(self, K: scipy.sparse.csc_array) -> _BandFactor | _SparseFactor:
        """Factor of the free partition of K, a matrix on the pattern."""
        return _BandFactor(K, self) if self.banded else _SparseFactor(K, self)


class _BandFactor:
    """Cholesky factor L L' of the free stiffness in reverse Cuthill-McKee
    order, by LAPACK in lower band storage. Its modal solve is the standard
    symmetric problem (L^-1 M L^-T) y = y / w^2, whose largest eigenvalues
    are the lowest modes: each Lanczos step is two triangular band solves
    and one mass product."""

    def __init__(self, K: scipy.sparse.csc_array, free: _FreeDofs):
        band = np.zeros((free.size, free.band + 1))
        band.flat[free.cells] = K.data[free.slots]
        band = band.T  # (band + 1, dofs) in Fortran order, the diagonal in row 0
        diagonal = band[0].copy()
        self.L, info = scipy.linalg.lapack.dpbtrf(band, lower=1, overwrite_ab=1)
        if info != 0:  # a leading minor is not positive definite
            raise SingularSystemError("rigid body motion or mechanism")
        _mechanism_rule(self.L[0] ** 2, diagonal)
        self.free = free

    def solve(self, b: np.ndarray) -> np.ndarray:
        order = self.free.order
        x = np.empty_like(b)
        x[order] = scipy.linalg.lapack.dpbtrs(self.L, b[order], lower=1)[0]
        return x

    def lowest_modes(self, M: scipy.sparse.csc_array, k: int,
                     start: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        L, order = self.L, self.free.order
        tbtrs = scipy.linalg.lapack.dtbtrs
        inner = self.free.dofs[order]
        full = np.zeros(M.shape[0])  # a free vector among zero constrained dofs

        def step(y: np.ndarray) -> np.ndarray:
            full[inner] = tbtrs(L, y, uplo="L", trans="T")[0]
            return tbtrs(L, (M @ full)[inner], uplo="L")[0]

        operator = scipy.sparse.linalg.LinearOperator((order.size,) * 2, matvec=step, dtype=float)
        mu, y = scipy.sparse.linalg.eigsh(operator, k=k, v0=start)
        vecs = np.empty_like(y)
        vecs[order] = tbtrs(L, y, uplo="L", trans="T")[0]
        return 1.0 / mu, vecs


class _SparseFactor:
    """SuperLU factor of the free stiffness in symmetric mode: symmetric
    ordering and diagonal pivots, an LDL'-style factor. Its modal solve is
    ARPACK's shift-invert Lanczos iteration about zero, with this factor as
    the inverse operator."""

    def __init__(self, K: scipy.sparse.csc_array, free: _FreeDofs):
        self.K = K[np.ix_(free.dofs, free.dofs)]
        try:
            lu = scipy.sparse.linalg.splu(self.K, permc_spec="MMD_AT_PLUS_A",
                                          diag_pivot_thresh=0.0,
                                          options={"SymmetricMode": True})
        except RuntimeError:  # SuperLU: "Factor is exactly singular"
            raise SingularSystemError("rigid body motion or mechanism") from None
        if not np.array_equal(lu.perm_r, lu.perm_c):
            raise SingularSystemError("rigid body motion or mechanism")
        # column i of K is eliminated by pivot perm_c[i]
        _mechanism_rule(lu.U.diagonal()[lu.perm_c], self.K.diagonal())
        self.free, self.solve = free, lu.solve

    def lowest_modes(self, M: scipy.sparse.csc_array, k: int,
                     start: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        dofs = self.free.dofs
        inverse = scipy.sparse.linalg.LinearOperator(self.K.shape, matvec=self.solve,
                                                     dtype=float)
        return scipy.sparse.linalg.eigsh(self.K, k=k, M=M[np.ix_(dofs, dofs)], sigma=0.0,
                                         OPinv=inverse, v0=start)


def _solve_free(K: scipy.sparse.csc_array, f: np.ndarray,
                free: _FreeDofs) -> tuple[np.ndarray, np.ndarray, float]:
    """Factorize the free partition and back-substitute; returns the
    displacements u (zero at constrained dofs), the out-of-balance forces
    K u - f and the residual, their norm over the free dofs relative to the
    free loads'."""
    u = np.zeros(K.shape[0])
    ff = f[free.dofs]
    if free.size:
        uf = free.factor(K).solve(ff)
        if not np.all(np.isfinite(uf)):
            raise SingularSystemError("rigid body motion or mechanism")
        u[free.dofs] = uf
    r = K @ u - f
    residual = float(np.linalg.norm(r[free.dofs]) / max(np.linalg.norm(ff), 1.0))
    if residual > RESIDUAL_LIMIT:
        raise SingularSystemError(f"ill-conditioned system, residual {residual:.2e}")
    return u, r, residual


def _node_vectors(index: dict[tuple[int, str], int], node_ids: list[int],
                  vectors: np.ndarray) -> list[dict[int, tuple[float, float, float]]]:
    """node id -> (ux, uy, rz) of each column of ``vectors``, rz 0.0 where
    a node has none."""
    n = len(node_ids)
    ux = np.fromiter(map(index.__getitem__, zip(node_ids, itertools.repeat("ux"))), np.int64, n)
    has_rz = np.fromiter(map(index.__contains__, zip(node_ids, itertools.repeat("rz"))), bool, n)
    # a node's dofs are consecutive from its ux, rz last where it has one
    dofs = ux[:, None] + np.arange(3)
    dofs[~has_rz, 2] = -1
    columns = vectors.reshape(len(vectors), -1)
    padded = np.vstack([columns, np.zeros((1, columns.shape[1]))])  # row -1: a missing rz
    return [dict(zip(node_ids, map(tuple, padded[dofs, j].tolist())))
            for j in range(padded.shape[1])]


def solve_static(model: IRModel) -> StaticResult:
    system = assemble(model)
    index = system.dof_index
    free = _FreeDofs(system.pattern, system.constrained)
    u, reactions_full, residual = _solve_free(system.K, system.f, free)

    displacements = _node_vectors(index, [n.id for n in model.nodes], u)[0]
    reactions: dict[int, tuple[float, float, float]] = {}
    for b in model.boundary_conditions:
        r = {d: float(reactions_full[index[(b.node_id, d)]])
             for d in b.sorted_dofs() if (b.node_id, d) in index}
        reactions[b.node_id] = (r.get("ux", 0.0), r.get("uy", 0.0), r.get("rz", 0.0))

    bars, frames = system.groups
    ue = u[bars.dofs]
    stretch = (ue[:, 2] - ue[:, 0]) * bars.c + (ue[:, 3] - ue[:, 1]) * bars.s
    force = bars.E * bars.A / bars.L * stretch
    ids = bars.ids.tolist()
    local = (_frame_stiffness_local(frames.E, frames.A, frames.I, frames.L)
             @ (_frame_transform(frames.c, frames.s) @ u[frames.dofs][:, :, None]))[:, :, 0]
    return StaticResult(
        displacements=displacements, reactions=reactions,
        axial_force=dict(zip(ids, force.tolist())),
        axial_stress=dict(zip(ids, (force / bars.A).tolist())),
        frame_end_forces=dict(zip(frames.ids.tolist(), map(tuple, local.tolist()))),
        equilibrium_residual=residual)


def solve_modal(model: IRModel, subdivisions: int = DEFAULT_MODAL_SUBDIVISIONS) -> ModalResult:
    """The ``modal_count`` lowest natural frequencies and mode shapes.

    The generalized problem K phi = w^2 M phi on the free dofs of the
    subdivided model goes to ARPACK's Lanczos iteration through the
    stiffness factor (``_BandFactor.lowest_modes``,
    ``_SparseFactor.lowest_modes``); when the count reaches the number of
    free dofs, to LAPACK's dense symmetric-definite solver. Each shape is
    scaled so that its largest-magnitude translation is +1.
    """
    n = model.analysis.modal_count
    if n is None or n < 1:
        raise ValueError("modal count must be >= 1")
    if restraint_rank(model) < 3:
        raise SingularSystemError("insufficient restraint for modal analysis")
    system = assemble(model, subdivisions)
    free = _FreeDofs(system.pattern, system.constrained)
    if free.size == 0:
        raise SingularSystemError("no free dofs")
    factor = free.factor(system.K)

    note = None
    if n < free.size:
        start = np.random.default_rng(LANCZOS_SEED).uniform(-1.0, 1.0, free.size)
        try:
            w2, vecs = factor.lowest_modes(system.M, n, start)
        except scipy.sparse.linalg.ArpackError as exc:  # includes ArpackNoConvergence
            raise SingularSystemError(f"modal eigensolver failed: {exc}") from None
        order = np.argsort(w2)
        w2, vecs = w2[order], vecs[:, order]
    else:
        if n > free.size:
            note = f"requested {n} modes but only {free.size} free dofs are available"
            n = free.size
        ff = np.ix_(free.dofs, free.dofs)
        try:
            w2, vecs = scipy.linalg.eigh(system.K[ff].toarray(), system.M[ff].toarray(),
                                         check_finite=False, subset_by_index=[0, n - 1])
        except scipy.linalg.LinAlgError:
            raise SingularSystemError("mass matrix not positive definite") from None
    if not np.all(w2 > 0):
        raise SingularSystemError("mechanism detected: non-positive vibration mode")
    freqs = tuple(float(math.sqrt(w) / (2 * math.pi)) for w in w2)

    translations = np.array([i for (_, d), i in system.dof_index.items() if d != "rz"])
    phi = np.zeros((system.n_dofs, n))
    phi[free.dofs] = vecs
    for i in range(n):
        t = phi[translations, i]
        peak = float(np.max(np.abs(t)))
        if peak > 0:
            lead = t[np.argmax(np.abs(t) >= (1.0 - PEAK_TIE_RTOL) * peak)]
            phi[free.dofs, i] /= math.copysign(peak, lead)  # constrained dofs stay +0.0
    shapes = _node_vectors(system.dof_index, [nd.id for nd in model.nodes], phi)
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


def optimize_topology(model: IRModel) -> TopoResult:
    """Minimum-compliance sizing of a truss ground structure, with the
    volume fraction and iteration count of ``ir.topology_params``.

    Design variables are normalized bar areas x in [1e-6, 1] of the largest
    section area; initialization is the uniform conservative prior
    x = volfrac. Each iteration rescales the unit-area element stiffnesses
    into the data vector of the model's sparsity pattern; the same matrices
    give the sensitivities.
    """
    if any(e.kind != "truss_bar" for e in model.elements):
        raise UnsupportedOptimizationError("ground structure must contain only truss bars")
    volfrac, max_iters = topology_params(model.analysis)
    if not (0.0 < volfrac <= 1.0):
        raise UnsupportedOptimizationError(f"volume fraction {volfrac} outside (0, 1]")

    index, (bars, _), f, constrained = _prepare(model)
    a_max = float(np.max(bars.A))
    lengths = bars.L
    target_volume = volfrac * float(lengths.sum())  # in units of a_max
    unit_stiffness = _element_stiffness(bars._replace(A=np.ones_like(bars.A)))
    pattern = _pattern(len(index), (bars,))
    free = _FreeDofs(pattern, constrained)

    def displacements(xv: np.ndarray) -> tuple[np.ndarray, float]:
        K = _scatter(pattern, [(xv * a_max)[:, None, None] * unit_stiffness])
        u, _, _ = _solve_free(K, f, free)
        return u, float(f @ u)

    x = np.full(bars.ids.size, volfrac)
    history: list[float] = []
    for _ in range(max_iters):
        u, compliance = displacements(x)
        history.append(compliance)
        ue = u[bars.dofs]
        neg_sens = a_max * np.einsum("ei,eij,ej->e", ue, unit_stiffness, ue)  # -dC/dx >= 0
        x_new = _oc_update(x, neg_sens, lengths, target_volume, AREA_FLOOR_RATIO)
        change = float(np.max(np.abs(x_new - x)))
        x = x_new
        if change < OC_STOP_TOL:
            break

    _, final_compliance = displacements(x)
    history.append(final_compliance)
    areas = dict(zip(bars.ids.tolist(), (x * a_max).tolist()))
    final_vf = float(x @ lengths) / float(lengths.sum())
    return TopoResult(areas=areas, compliance_history=tuple(history),
                      final_volume_fraction=final_vf)


def _static_highlights(rs: StaticResult) -> dict[str, float]:
    out = {"max_displacement_m": max((math.hypot(v[0], v[1]) for v in rs.displacements.values()),
                                     default=0.0)}
    if rs.axial_stress:
        out["max_abs_axial_stress_pa"] = max(abs(v) for v in rs.axial_stress.values())
    return out


class Analysis(NamedTuple):
    """One analysis mode: its result class and ``result_kind`` tag in the
    results database, the solver run for a model of the mode, the acceptance
    check of results read back, and the figures a case report highlights."""
    result: type
    kind: str
    run: Callable[[IRModel], object]
    accept: Callable[[object, AnalysisSpec], bool]
    highlights: Callable[[object], dict[str, float]]


# One row per ``ir.ANALYSIS_MODES`` entry, in that order. A row calls the
# solver by this module's name at call time, so that a rebound
# ``solver.solve_static`` (a tracer's timing wrapper) is the one that runs.
ANALYSES = {
    "static": Analysis(
        StaticResult, "static", lambda m: solve_static(m),
        lambda rs, _: rs.equilibrium_residual <= RESIDUAL_LIMIT,
        _static_highlights),
    "modal": Analysis(
        ModalResult, "modal", lambda m: solve_modal(m),
        lambda rs, _: (min(rs.frequencies_hz, default=0.0) > 0  # some, all positive, ascending
                       and list(rs.frequencies_hz) == sorted(rs.frequencies_hz)),
        lambda rs: {"first_frequency_hz": rs.frequencies_hz[0]}),
    "topology_optimization": Analysis(
        TopoResult, "topo", lambda m: optimize_topology(m),
        lambda rs, a: rs.final_volume_fraction <= topology_params(a)[0] + VOLUME_SLACK,
        lambda rs: {"final_compliance_j": rs.compliance_history[-1],
                    "final_volume_fraction": rs.final_volume_fraction}),
}
