"""Reference copies of the per-kind branches that ``ir.KINDS`` replaced:
the script words of ``simscript``, the ``elements`` directive words of
``perception.parse_context``, the dofs of ``solver`` with its element matrix
branches, ``_rz_nodes``, ``solved_dofs`` and the first half of ``assemble``, and
``validation.check_l1`` with its frame-only inertia rule. The element-kind
property in test_element_kinds.py checks the table-driven code against
them.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from vfea.ir import (_ID, _KIND, _SECTION_ID, COLLECTIONS, MODES, IRModel, _coordinates,
                     _endpoints, _rows, bounding_box)
from vfea.solver import (_TRUSS_MASS, ANALYSES, SolverError, _frame_mass_local,
                         _frame_stiffness_local, _frame_transform, _group, _Group, _pattern,
                         _scatter)
from vfea.validation import Finding

KIND_TO_SCRIPT = {"truss_bar": "truss", "frame_beam": "frame"}
SCRIPT_TO_KIND = {v: k for k, v in KIND_TO_SCRIPT.items()}
ELEMENT_DIRECTIVES = {"truss": "truss_bar", "truss_bar": "truss_bar",
                      "frame": "frame_beam", "frame_beam": "frame_beam"}
DOF_NAMES = {"truss_bar": ("ux", "uy"), "frame_beam": ("ux", "uy", "rz")}


def check_l1(model: IRModel) -> list[Finding]:
    """Schema-integrity findings: empty arrays, duplicate keys, dangling refs,
    non-finite values, analysis parameters and element kinds the mode rejects."""
    out: list[Finding] = []

    def f(code: str, message: str, subject: str | None = None):
        out.append(Finding("L1", code, message, subject))

    spec = model.analysis
    row = MODES[spec.mode]
    for coll in COLLECTIONS.values():
        # a mode driven by mass alone (modal analysis) may have no loads
        if not getattr(model, coll.attr) and not (coll.key == "loads" and row.needs_mass):
            f("empty-array", f"entity array '{coll.key}' is empty", coll.key)

    present: dict[str, set] = {}  # each collection's keys
    for coll in COLLECTIONS.values():
        name, ids = coll.key, list(coll.keys(getattr(model, coll.attr)))
        seen = present[name] = set()
        for i in ids:
            if i in seen:
                f("duplicate-id", f"duplicate {name} entry for id {i}", f"{name}/{i}")
            seen.add(i)
        for i in ids:
            if i <= 0:
                f("nonpositive-id", f"{name} id {i} is not a positive integer", f"{name}/{i}")
                break
    dangling = {coll.key: coll.dangling(getattr(model, coll.attr), present)
                for coll in COLLECTIONS.values()}
    sections_by_id = {s.id: s for s in model.sections}

    for n in model.nodes:
        if not (math.isfinite(n.x) and math.isfinite(n.y)):
            f("nonfinite-value", f"node {n.id} has non-finite coordinates", f"nodes/{n.id}")
    for k, e in enumerate(model.elements):
        a, b = e.node_ids
        if a == b:
            f("self-loop", f"element {e.id} connects node {a} to itself", f"elements/{e.id}")
        for message in dangling["elements"].get(k, ()):
            f("dangling-ref", message, f"elements/{e.id}")
        sec = sections_by_id.get(e.section_id) if e.kind == "frame_beam" else None
        if sec is not None and (sec.moment_of_inertia is None or sec.moment_of_inertia <= 0):
            f("missing-inertia",
              f"frame element {e.id} uses section {sec.id} without a positive moment of inertia",
              f"sections/{sec.id}")
    for kind in dict.fromkeys(map(_KIND, model.elements)):
        if kind not in row.element_kinds:
            f("mode-elements", f"{spec.mode} analysis does not accept {kind} elements",
              "elements")
    # a zero or negative area or modulus leaves the stiffness matrix singular
    # or indefinite, which the solver would report as a mechanism; a zero or
    # negative density does the same to the mass matrix of a mode that needs one
    for m in model.materials:
        if not all(math.isfinite(v) for v in (m.youngs_modulus, m.poisson_ratio, m.density)):
            f("nonfinite-value", f"material {m.id} has non-finite properties", f"materials/{m.id}")
            continue
        if m.youngs_modulus <= 0:
            f("nonpositive-stiffness", f"material {m.id} has a non-positive youngs modulus "
                                       f"{m.youngs_modulus!r}", f"materials/{m.id}")
        if m.density <= 0 and row.needs_mass:
            f("nonpositive-mass", f"material {m.id} has a non-positive density {m.density!r}",
              f"materials/{m.id}")
    for k, s in enumerate(model.sections):
        for message in dangling["sections"].get(k, ()):
            f("dangling-ref", message, f"sections/{s.id}")
        if not math.isfinite(s.area) or (s.moment_of_inertia is not None
                                         and not math.isfinite(s.moment_of_inertia)):
            f("nonfinite-value", f"section {s.id} has non-finite properties", f"sections/{s.id}")
        elif s.area <= 0:
            f("nonpositive-stiffness", f"section {s.id} has a non-positive area {s.area!r}",
              f"sections/{s.id}")
    for k, b in enumerate(model.boundary_conditions):
        for message in dangling["bcs"].get(k, ()):
            f("dangling-ref", message, f"bcs/{b.node_id}")
        if not b.constrained_dofs:
            f("empty-dofs", f"bc at node {b.node_id} constrains no dofs", f"bcs/{b.node_id}")
    for k, l in enumerate(model.loads):
        for message in dangling["loads"].get(k, ()):
            f("dangling-ref", message, f"loads/{l.node_id}")
        if not all(math.isfinite(v) for v in (l.fx, l.fy, l.mz)):
            f("nonfinite-value", f"load at node {l.node_id} has non-finite components",
              f"loads/{l.node_id}")
        elif l.fx == 0.0 and l.fy == 0.0 and l.mz == 0.0:
            f("zero-load", f"load at node {l.node_id} has all components zero", f"loads/{l.node_id}")

    # each mode's parameters lie in their range, a kept one is set, and
    # another mode's are unset
    for mode, other in MODES.items():
        for p in other.params:
            value = getattr(spec, p.attr)
            if mode != spec.mode:
                if value is not None:
                    f("mode-params", f"{p.key} is only valid in {mode} mode, not {spec.mode}",
                      "analysis")
            elif value is None:
                if p.kept:
                    f("mode-params", f"{mode} analysis requires {p.key}", "analysis")
            elif not p.low <= value <= p.high:
                f("mode-params", f"{p.key} must lie in [{p.low:g}, {p.high:g}], got {value}",
                  "analysis")

    if model.coordinate_mode == "normalized":
        box = bounding_box((n.x, n.y) for n in model.nodes)
        if box is not None:
            xmin, ymin, xmax, ymax = box
            if xmin < -1e-9 or ymin < -1e-9 or xmax > 1 + 1e-9 or ymax > 1 + 1e-9:
                f("normalized-bounds",
                  "normalized coordinate mode requires the bounding box inside the unit square",
                  "coordinate_mode")
    return out


def _truss_stiffness(ea_over_l: np.ndarray, c: np.ndarray, s: np.ndarray) -> np.ndarray:
    cc, ss, cs = c * c, s * s, c * s
    block = np.stack([np.stack([cc, cs], -1), np.stack([cs, ss], -1)], -2)
    return ea_over_l[:, None, None] * np.block([[block, -block], [-block, block]])


def element_stiffness(g: _Group) -> np.ndarray:
    """Global stiffness matrices of a group, shape (m, d, d)."""
    if g.kind == "truss_bar":
        return _truss_stiffness(g.E * g.A / g.L, g.c, g.s)
    t = _frame_transform(g.c, g.s)
    return t.transpose(0, 2, 1) @ _frame_stiffness_local(g.E, g.A, g.I, g.L) @ t


def element_mass(g: _Group) -> np.ndarray:
    """Global consistent mass matrices of a group, shape (m, d, d)."""
    if g.kind == "truss_bar":
        return (g.rho * g.A * g.L / 6.0)[:, None, None] * _TRUSS_MASS
    t = _frame_transform(g.c, g.s)
    return t.transpose(0, 2, 1) @ _frame_mass_local(g.rho, g.A, g.L) @ t


def _rz_nodes(model: IRModel) -> set[int]:
    """The node ids that carry rz: frame-connected, loaded by a moment, or
    with rz constrained."""
    rz_nodes = {n for e in model.elements if e.kind == "frame_beam" for n in e.node_ids}
    rz_nodes |= {l.node_id for l in model.loads if l.mz != 0.0}
    rz_nodes |= {b.node_id for b in model.boundary_conditions if "rz" in b.constrained_dofs}
    return rz_nodes


def build_dof_index(model: IRModel) -> dict[tuple[int, str], int]:
    """Allocate global dof indices: ux, uy at every node; rz only where it can
    carry stiffness (frame-connected), load, or an explicit constraint."""
    rz_nodes = _rz_nodes(model)
    index: dict[tuple[int, str], int] = {}
    for n in sorted(model.nodes, key=lambda n: n.id):
        index[(n.id, "ux")] = len(index)
        index[(n.id, "uy")] = len(index)
        if n.id in rz_nodes:
            index[(n.id, "rz")] = len(index)
    return index


def solved_dofs(model: IRModel) -> int:
    """Dofs the solver assembles for the model's analysis, constrained ones
    included: the analysis splits each frame member into its row's
    ``subdivisions`` elements, whose interior nodes carry ux, uy and rz each."""
    # ux and uy at every node, rz at those build_dof_index gives one
    node_ids = set(map(_ID, model.nodes))
    frames = sum(e.kind != "truss_bar" for e in model.elements)
    return (2 * len(node_ids) + len(node_ids & _rz_nodes(model))
            + 3 * (ANALYSES[model.analysis.mode].subdivisions - 1) * frames)


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
        d = len(DOF_NAMES[kind])
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
                                           DOF_NAMES["frame_beam"]),
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
        raise SolverError(message.format(element))

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


def layout(model: IRModel, index: dict[tuple[int, str], int]) -> tuple:
    """The dof layout the solver keeps of a dof index of the split model: the
    model's node ids in increasing order, the ux, uy, rz dofs of each point
    (-1 for none), the nodes in that order and then the interior points in
    index order, and the dof count."""
    points = dict.fromkeys(n for n, _ in index)
    return (sorted(n.id for n in model.nodes),
            [[index.get((n, d), -1) for d in DOF_NAMES["frame_beam"]] for n in points],
            len(index))


def assemble(model: IRModel, n_sub: int = 1):
    """Dof layout, K, M, f, constrained dofs and groups of the split model."""
    index, groups, f, constrained = _prepare(model, n_sub)
    pattern = _pattern(len(index), groups)
    K = _scatter(pattern, [element_stiffness(g) for g in groups])
    M = _scatter(pattern, [element_mass(g) for g in groups])
    return layout(model, index), K, M, f, constrained, groups
