"""Four-level model audit and the non-degenerative update gate.

Finding codes are catalogued in docs/findings.md. Levels gate each other:
schema integrity (L1) must be clean before physical stability (L2) and
plausibility (L3) run, and those must be clean before the drawing
consistency reverse-check (L4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

import numpy as np
import scipy.sparse
import scipy.sparse.csgraph

from .ir import (_ID, _KIND, COLLECTIONS, KINDS, MODES, BoundaryCondition, IRModel, Material,
                 Section, _coordinates, _distances, _endpoints, _rows, bounding_box, diff,
                 pairs_within)

if TYPE_CHECKING:  # pragma: no cover
    from .perception import BeliefState, PrimitiveDrawing, ScaleResolution

DIMENSION_TOLERANCE = 0.02             # relative, for the L4 reverse-check
_DIRECT_ROWS, _BLOCK_PAIRS = 8, 2 ** 20    # the L4 pair search's blocks (check_l4)
ZERO_LENGTH_EPS = 1e-12                # m


class Bound(NamedTuple):
    """One L3 bound: the record class and field it bounds, the finding's code
    and name for a value (a format of it), and the interval it quotes, whose
    ``[`` and ``]`` include a bound and ``(`` and ``)`` exclude it."""
    record: type
    field: str
    code: str
    names: str
    interval: str

    def holds(self, value: float) -> bool:
        low, high = map(float, self.interval[1:-1].split(","))
        return ((low <= value if self.interval[0] == "[" else low < value)
                and (value <= high if self.interval[-1] == "]" else value < high))


# docs/findings.md's L3 table, in SI units: bounds that bracket common
# structural metals and composites, checked record by record in this order
BOUNDS = (
    Bound(Material, "poisson_ratio", "poisson-range", "poisson ratio {}", "[0, 0.5)"),
    Bound(Material, "youngs_modulus", "modulus-range", "youngs modulus {:g} Pa", "[1e9, 1e12]"),
    Bound(Material, "density", "density-range", "density {:g}", "(0, 5e4]"),
    Bound(Section, "area", "area-range", "area {:g}", "(0, 10]"),
    Bound(Section, "moment_of_inertia", "inertia-range", "moment of inertia {:g}", "(0, 10]"),
)


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
    needs_inertia = {kind for kind, row in KINDS.items() if row.needs_inertia}

    for n in model.nodes:
        if not (math.isfinite(n.x) and math.isfinite(n.y)):
            f("nonfinite-value", f"node {n.id} has non-finite coordinates", f"nodes/{n.id}")
    for k, e in enumerate(model.elements):
        a, b = e.node_ids
        if a == b:
            f("self-loop", f"element {e.id} connects node {a} to itself", f"elements/{e.id}")
        for message in dangling["elements"].get(k, ()):
            f("dangling-ref", message, f"elements/{e.id}")
        sec = sections_by_id.get(e.section_id) if e.kind in needs_inertia else None
        if sec is not None and (sec.moment_of_inertia is None or sec.moment_of_inertia <= 0):
            f("missing-inertia", f"{KINDS[e.kind].word} element {e.id} uses section {sec.id} "
                                 "without a positive moment of inertia", f"sections/{sec.id}")
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
    duplicate and zero-length elements, an element being zero-length when
    its ``math.dist`` length, as ``ir._distances`` measures it, is below
    ``ZERO_LENGTH_EPS``. Assumes L1 passed."""
    out: list[Finding] = []
    rank = restraint_rank(model)
    if rank < 3:
        out.append(Finding("L2", "rigid-body-motion",
                           f"constrained dofs restrain only {rank} of 3 planar rigid modes"))
    nodes = sorted(model.nodes, key=_ID)
    ids = [n.id for n in nodes]
    # node rows, in id order, of each element's two ends, so a row compares
    # as its id does
    ends = _rows(ids, _endpoints(model.elements)).reshape(-1, 2)
    labels = connected_components(len(ids), ends[:, 0], ends[:, 1])
    _, first = np.unique(labels, return_index=True)  # the lowest id of each component
    supported = np.zeros(len(first), bool)
    bcs = _rows(ids, COLLECTIONS[BoundaryCondition].keys(model.boundary_conditions), missing=-1)
    supported[labels[bcs[bcs >= 0]]] = True
    for k in first[~supported].tolist():
        out.append(Finding("L2", "floating-substructure",
                           f"component containing node {ids[k]} has no supported node",
                           f"nodes/{ids[k]}"))

    kinds = list(map(_KIND, model.elements))
    kind = _rows(dict.fromkeys(kinds), kinds)
    lo, hi = ends.min(axis=1), ends.max(axis=1)
    _, once = np.unique((kind * len(ids) + lo) * len(ids) + hi, return_index=True)
    repeated = np.ones(len(kinds), bool)
    repeated[once] = False  # all but the first element of each (kind, ends)
    for k in np.flatnonzero(repeated).tolist():
        e = model.elements[k]
        out.append(Finding("L2", "duplicate-element",
                           f"element {e.id} duplicates another {e.kind} between nodes "
                           f"{ids[lo[k]]} and {ids[hi[k]]}", f"elements/{e.id}"))

    xy = _coordinates(nodes)
    lengths = _distances(xy.take(ends[:, 1], axis=0), xy.take(ends[:, 0], axis=0),
                         ZERO_LENGTH_EPS)
    for k in np.flatnonzero(lengths < ZERO_LENGTH_EPS).tolist():
        e = model.elements[k]
        out.append(Finding("L2", "zero-length-element",
                           f"element {e.id} has zero length", f"elements/{e.id}"))
    return out


def check_l3(model: IRModel) -> list[Finding]:
    """Engineering-plausibility findings on material and section ranges; an
    unset field is not checked."""
    out: list[Finding] = []
    for record in dict.fromkeys(b.record for b in BOUNDS):
        coll, bounds = COLLECTIONS[record], [b for b in BOUNDS if b.record is record]
        for r in getattr(model, coll.attr):
            for b in bounds:
                value = getattr(r, b.field)
                if value is not None and not b.holds(value):
                    out.append(Finding("L3", b.code, f"{coll.key[:-1]} {r.id} "
                                       f"{b.names.format(value)} outside {b.interval}",
                                       f"{coll.key}/{r.id}"))
    return out


def _pair_distance_within(xs: np.ndarray, ys: np.ndarray, lo: float, hi: float) -> bool:
    """Whether ``lo <= math.hypot(xb - xa, yb - ya) <= hi`` for some pair of
    nodes a < b, searched in growing blocks of nodes a until one holds such
    a pair. A block's candidates are all its nodes' pairs while it is small
    or ``hi`` is infinite, else those within ``hi`` (``ir.pairs_within``), at
    most about ``_BLOCK_PAIRS`` of them at the last block's rate, measured
    by ``ir._distances``.
    """
    if not hi >= 0:  # no distance is negative or NaN-bounded
        return False
    n, xy = len(xs), np.column_stack((xs, ys))
    with np.errstate(over="ignore", invalid="ignore"):  # NaN or inf: no bound
        diagonal = math.hypot(np.ptp(xs), np.ptp(ys)) if n else 0.0
    if lo > diagonal * (1 + 2 ** -40) + 2 ** -1070:  # beyond every pair
        return False
    start, size = 0, 1
    while start < n - 1:
        rows = xy[start:start + size]
        if size <= _DIRECT_ROWS or hi == math.inf:
            i, j = np.divmod(np.arange(len(rows) * n), n)
        else:
            i, j = pairs_within(rows, hi, xy)
        rate = i.size / len(rows)
        i = i + start
        keep = i < j
        d = _distances(xy.take(j[keep], axis=0), xy.take(i[keep], axis=0), lo, hi)
        if np.any((lo <= d) & (d <= hi)):
            return True
        start, size = start + size, max(1, min(2 * size, int(_BLOCK_PAIRS / max(rate, 1))))
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
