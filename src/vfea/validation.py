"""Four-level model audit and the non-degenerative update gate.

Finding codes are catalogued in docs/findings.md. Levels gate each other:
schema integrity (L1) must be clean before physical stability (L2) and
plausibility (L3) run, and those must be clean before the drawing
consistency reverse-check (L4).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse
import scipy.sparse.csgraph

from .ir import IRModel, bounding_box, diff

if TYPE_CHECKING:  # pragma: no cover
    from .perception import BeliefState, PrimitiveDrawing, ScaleResolution

# plausibility bounds: bracket common structural metals and composites
YOUNGS_MODULUS_RANGE = (1e9, 1e12)     # Pa
POISSON_RANGE = (0.0, 0.5)             # [0, 0.5)
DENSITY_MAX = 5e4                      # kg/m^3
AREA_MAX = 10.0                        # m^2
INERTIA_MAX = 10.0                     # m^4

DIMENSION_TOLERANCE = 0.02             # relative, for the L4 reverse-check
# relative widening of the L4 band for numpy's squared distances, which may
# differ from math.hypot's in the last bits; candidates are confirmed exactly
_HYPOT_SLACK = 1e-12
ZERO_LENGTH_EPS = 1e-12                # m


@dataclass(frozen=True)
class Finding:
    level: str
    code: str
    message: str
    subject: str | None = None


@dataclass(frozen=True)
class ValidationReport:
    findings: tuple[Finding, ...] = ()
    justification: str | None = None

    @property
    def clean(self) -> bool:
        return not self.findings


@dataclass(frozen=True)
class UpdateDecision:
    accepted: bool
    reason: str | None = None


def check_l1(model: IRModel) -> list[Finding]:
    """Schema-integrity findings: empty arrays, duplicate keys, dangling refs,
    non-finite values, malformed analysis parameters."""
    out: list[Finding] = []

    def f(code: str, message: str, subject: str | None = None):
        out.append(Finding("L1", code, message, subject))

    required_nonempty = [("nodes", model.nodes), ("elements", model.elements),
                         ("materials", model.materials), ("sections", model.sections),
                         ("bcs", model.boundary_conditions)]
    # modal analysis is driven by mass alone, an empty load array is fine there
    if model.analysis.mode != "modal":
        required_nonempty.append(("loads", model.loads))
    for name, seq in required_nonempty:
        if not seq:
            f("empty-array", f"entity array '{name}' is empty", name)

    for name, ids in (("nodes", [n.id for n in model.nodes]),
                      ("elements", [e.id for e in model.elements]),
                      ("materials", [m.id for m in model.materials]),
                      ("sections", [s.id for s in model.sections]),
                      ("bcs", [b.node_id for b in model.boundary_conditions]),
                      ("loads", [l.node_id for l in model.loads])):
        seen: set[int] = set()
        for i in ids:
            if i in seen:
                f("duplicate-id", f"duplicate {name} entry for id {i}", f"{name}/{i}")
            seen.add(i)
        for i in ids:
            if i <= 0:
                f("nonpositive-id", f"{name} id {i} is not a positive integer", f"{name}/{i}")
                break

    node_ids = {n.id for n in model.nodes}
    section_ids = {s.id for s in model.sections}
    material_ids = {m.id for m in model.materials}
    sections_by_id = {s.id: s for s in model.sections}

    for n in model.nodes:
        if not (math.isfinite(n.x) and math.isfinite(n.y)):
            f("nonfinite-value", f"node {n.id} has non-finite coordinates", f"nodes/{n.id}")
    for e in model.elements:
        a, b = e.node_ids
        if a == b:
            f("self-loop", f"element {e.id} connects node {a} to itself", f"elements/{e.id}")
        for nid in (a, b):
            if nid not in node_ids:
                f("dangling-ref", f"element {e.id} references missing node {nid}", f"elements/{e.id}")
        if e.section_id not in section_ids:
            f("dangling-ref", f"element {e.id} references missing section {e.section_id}",
              f"elements/{e.id}")
        elif e.kind == "frame_beam":
            sec = sections_by_id[e.section_id]
            if sec.moment_of_inertia is None or sec.moment_of_inertia <= 0:
                f("missing-inertia",
                  f"frame element {e.id} uses section {sec.id} without a positive moment of inertia",
                  f"sections/{sec.id}")
    # a zero or negative area or modulus leaves the stiffness matrix singular
    # or indefinite, which the solver would report as a mechanism; a zero or
    # negative density does the same to the mass matrix of a modal analysis
    for m in model.materials:
        if not all(math.isfinite(v) for v in (m.youngs_modulus, m.poisson_ratio, m.density)):
            f("nonfinite-value", f"material {m.id} has non-finite properties", f"materials/{m.id}")
            continue
        if m.youngs_modulus <= 0:
            f("nonpositive-stiffness", f"material {m.id} has a non-positive youngs modulus "
                                       f"{m.youngs_modulus!r}", f"materials/{m.id}")
        if m.density <= 0 and model.analysis.mode == "modal":
            f("nonpositive-mass", f"material {m.id} has a non-positive density {m.density!r}",
              f"materials/{m.id}")
    for s in model.sections:
        if s.material_id not in material_ids:
            f("dangling-ref", f"section {s.id} references missing material {s.material_id}",
              f"sections/{s.id}")
        if not math.isfinite(s.area) or (s.moment_of_inertia is not None
                                         and not math.isfinite(s.moment_of_inertia)):
            f("nonfinite-value", f"section {s.id} has non-finite properties", f"sections/{s.id}")
        elif s.area <= 0:
            f("nonpositive-stiffness", f"section {s.id} has a non-positive area {s.area!r}",
              f"sections/{s.id}")
    for b in model.boundary_conditions:
        if b.node_id not in node_ids:
            f("dangling-ref", f"bc references missing node {b.node_id}", f"bcs/{b.node_id}")
        if not b.constrained_dofs:
            f("empty-dofs", f"bc at node {b.node_id} constrains no dofs", f"bcs/{b.node_id}")
    for l in model.loads:
        if l.node_id not in node_ids:
            f("dangling-ref", f"load references missing node {l.node_id}", f"loads/{l.node_id}")
        if not all(math.isfinite(v) for v in (l.fx, l.fy, l.mz)):
            f("nonfinite-value", f"load at node {l.node_id} has non-finite components",
              f"loads/{l.node_id}")
        elif l.fx == 0.0 and l.fy == 0.0 and l.mz == 0.0:
            f("zero-load", f"load at node {l.node_id} has all components zero", f"loads/{l.node_id}")

    a = model.analysis
    if a.mode == "modal":
        if a.modal_count is None:
            f("mode-params", "modal analysis requires modal_count", "analysis")
        elif a.modal_count <= 0:
            f("mode-params", f"modal_count must be positive, got {a.modal_count}", "analysis")
    elif a.modal_count is not None:
        f("mode-params", f"modal_count is only valid in modal mode, not {a.mode}", "analysis")
    if a.mode == "topology_optimization":
        # volume fraction and iteration budget are optional: lowering applies
        # the conservative priors (0.5, 50) when they are absent
        if a.opt_volume_fraction is not None and not (0.0 < a.opt_volume_fraction <= 1.0):
            f("mode-params", f"volfrac must lie in (0, 1], got {a.opt_volume_fraction}", "analysis")
        if a.opt_max_iterations is not None and a.opt_max_iterations <= 0:
            f("mode-params", "max_iterations must be positive", "analysis")
    else:
        if a.opt_volume_fraction is not None or a.opt_max_iterations is not None:
            f("mode-params", f"optimization parameters are only valid in "
                             f"topology_optimization mode, not {a.mode}", "analysis")

    if model.coordinate_mode == "normalized":
        box = bounding_box((n.x, n.y) for n in model.nodes)
        if box is not None:
            xmin, ymin, xmax, ymax = box
            if xmin < -1e-9 or ymin < -1e-9 or xmax > 1 + 1e-9 or ymax > 1 + 1e-9:
                f("normalized-bounds",
                  "normalized coordinate mode requires the bounding box inside the unit square",
                  "coordinate_mode")
    return out


def restraint_rank(model: IRModel) -> int:
    """Rank of the rigid-body restraint matrix, in [0, 3].

    Each constrained dof contributes one row of the map from planar rigid
    motion (tx, ty, w) to the displacement it would see: ux -> (1, 0, -y),
    uy -> (0, 1, x), rz -> (0, 0, 1). Each row is reduced against the basis
    found so far as it is built, and the scan stops at rank 3. Elimination
    is exact over rationals, so collinear restraint patterns are ranked
    correctly.
    """
    pos = model.node_positions()
    basis: list[tuple[int, list[Fraction]]] = []  # (pivot column, row)
    zero, one = Fraction(0), Fraction(1)
    for bc in model.boundary_conditions:
        x, y = pos[bc.node_id]
        for dof in bc.sorted_dofs():
            if dof == "ux":
                row = [one, zero, -Fraction(y)]
            elif dof == "uy":
                row = [zero, one, Fraction(x)]
            else:
                row = [zero, zero, one]
            # each basis row is zero in the pivot columns of those before it
            for col, b in basis:
                if row[col] != 0:
                    factor = row[col] / b[col]
                    row = [r - factor * v for r, v in zip(row, b)]
            col = next((c for c in range(3) if row[c] != 0), None)
            if col is not None:
                basis.append((col, row))
                if len(basis) == 3:
                    return 3
    return len(basis)


def connected_components(n: int, i, j) -> np.ndarray:
    """The component label of each of ``n`` items joined by the links
    (i[k], j[k]). Components are numbered 0, 1, ... in the order of their
    first (lowest) member, so taking items in label order, stably, lists
    each component's members in ascending order."""
    if n == 0:
        return np.zeros(0, np.intp)
    graph = scipy.sparse.coo_array((np.ones(len(i)), (i, j)), shape=(n, n))
    _, labels = scipy.sparse.csgraph.connected_components(graph, directed=False)
    _, first = np.unique(labels, return_index=True)
    number = np.empty(len(first), np.intp)
    number[np.argsort(first)] = np.arange(len(first))
    return number[labels]


def check_l2(model: IRModel) -> list[Finding]:
    """Physical-stability findings: rigid-body motion, floating substructures,
    duplicate and zero-length elements. Assumes L1 passed."""
    out: list[Finding] = []
    rank = restraint_rank(model)
    if rank < 3:
        out.append(Finding("L2", "rigid-body-motion",
                           f"constrained dofs restrain only {rank} of 3 planar rigid modes"))
    ids = sorted(n.id for n in model.nodes)
    index = {nid: k for k, nid in enumerate(ids)}
    ends = [index[nid] for e in model.elements for nid in e.node_ids]
    labels = connected_components(len(ids), ends[0::2], ends[1::2])
    _, first = np.unique(labels, return_index=True)  # the lowest id of each component
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


def check_l3(model: IRModel) -> list[Finding]:
    """Engineering-plausibility findings on material and section ranges."""
    out: list[Finding] = []
    for m in model.materials:
        if not (POISSON_RANGE[0] <= m.poisson_ratio < POISSON_RANGE[1]):
            out.append(Finding("L3", "poisson-range",
                               f"material {m.id} poisson ratio {m.poisson_ratio} outside [0, 0.5)",
                               f"materials/{m.id}"))
        if not (YOUNGS_MODULUS_RANGE[0] <= m.youngs_modulus <= YOUNGS_MODULUS_RANGE[1]):
            out.append(Finding("L3", "modulus-range",
                               f"material {m.id} youngs modulus {m.youngs_modulus:g} Pa outside "
                               f"[1e9, 1e12]", f"materials/{m.id}"))
        if not (0.0 < m.density <= DENSITY_MAX):
            out.append(Finding("L3", "density-range",
                               f"material {m.id} density {m.density:g} outside (0, 5e4]",
                               f"materials/{m.id}"))
    for s in model.sections:
        if not (0.0 < s.area <= AREA_MAX):
            out.append(Finding("L3", "area-range",
                               f"section {s.id} area {s.area:g} outside (0, 10]", f"sections/{s.id}"))
        if s.moment_of_inertia is not None and not (0.0 < s.moment_of_inertia <= INERTIA_MAX):
            out.append(Finding("L3", "inertia-range",
                               f"section {s.id} moment of inertia {s.moment_of_inertia:g} "
                               f"outside (0, 10]", f"sections/{s.id}"))
    return out


def _pair_distance_within(xs: np.ndarray, ys: np.ndarray, lo: float, hi: float) -> bool:
    """Whether ``lo <= math.hypot(xb - xa, yb - ya) <= hi`` for some node pair.

    Each node's row of squared distances to the later nodes is computed with
    numpy, and the scan stops at the first row that matches. The row is
    screened against the band widened by a relative ``_HYPOT_SLACK`` (and by
    1e-300, for squares that underflow); the survivors, and any NaN, are
    confirmed with ``math.hypot`` on the same differences, so the predicate
    is the exact one.
    """
    if not hi >= 0:  # no distance is negative or NaN-bounded
        return False
    lo2 = lo * lo * (1 - _HYPOT_SLACK) - 1e-300 if lo > 0 else -math.inf
    hi2 = hi * hi * (1 + _HYPOT_SLACK) + 1e-300
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN are screened in
        for k in range(len(xs) - 1):
            dx = xs[k + 1:] - xs[k]
            dy = ys[k + 1:] - ys[k]
            d2 = dx * dx + dy * dy
            for j in np.flatnonzero(~((d2 < lo2) | (d2 > hi2))):
                if lo <= math.hypot(dx[j], dy[j]) <= hi:
                    return True
    return False


def check_l4(model: IRModel, drawing: "PrimitiveDrawing",
             scale: "ScaleResolution", tolerance: float = DIMENSION_TOLERANCE) -> list[Finding]:
    """Reverse-check that every annotated dimension is realized by some node
    pair distance. Vacuous in normalized mode (no metric anchor exists)."""
    if scale.mode != "metric":
        return []
    out: list[Finding] = []
    xs = np.fromiter((n.x for n in model.nodes), float, len(model.nodes))
    ys = np.fromiter((n.y for n in model.nodes), float, len(model.nodes))
    for i, ann in enumerate(drawing.dimension_annotations):
        v = ann.value
        lo, hi = v * (1 - tolerance), v * (1 + tolerance)
        if not _pair_distance_within(xs, ys, lo, hi):
            out.append(Finding("L4", "unrepresented-dimension",
                               f"annotated dimension {v:g} m matches no node pair distance "
                               f"within {tolerance:.0%}", f"dimension_annotations/{i}"))
    return out


def audit(model: IRModel, drawing: "PrimitiveDrawing | None" = None,
          scale: "ScaleResolution | None" = None) -> ValidationReport:
    """Run the audit protocol with short-circuit gating between levels."""
    findings = tuple(check_l1(model))
    if findings:
        return ValidationReport(findings=findings)
    findings = tuple(check_l2(model)) + tuple(check_l3(model))
    if findings:
        return ValidationReport(findings=findings)
    if drawing is not None and scale is not None:
        findings = tuple(check_l4(model, drawing, scale))
    return ValidationReport(findings=findings)


def serialize_report(report: ValidationReport) -> str:
    """Render a report in the same text-document convention as the IR."""
    doc = {
        "clean": report.clean,
        "findings": [
            {"level": f.level, "code": f.code, "message": f.message, "subject": f.subject}
            for f in report.findings
        ],
        "justification": report.justification,
    }
    return json.dumps(doc, indent=2) + "\n"


def accept_update(belief: "BeliefState", candidate: IRModel,
                  report: ValidationReport) -> UpdateDecision:
    """Gate a draft replacement: reject updates that remove previously
    accepted entities unless the report explicitly justifies the loss."""
    if belief.draft is None:
        return UpdateDecision(accepted=True)
    change = diff(belief.draft, candidate)
    if change.degenerative and report.justification is None:
        removed = {cls: ids for cls, ids in change.removed.items() if ids}
        return UpdateDecision(accepted=False,
                              reason=f"unjustified removal of validated entities: {removed}")
    return UpdateDecision(accepted=True)
