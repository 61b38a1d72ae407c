"""Solver-agnostic intermediate model: types, canonical form, diffing, text schema.

The serialized document format is frozen in docs/ir-schema.md and is the
single source of truth for the schema-integrity audit.
"""

from __future__ import annotations

import json
import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

DOF_ORDER = ("ux", "uy", "rz")
ELEMENT_KINDS = ("truss_bar", "frame_beam")
ANALYSIS_MODES = ("static", "modal", "topology_optimization")
COORDINATE_MODES = ("metric", "normalized")

ENTITY_CLASSES = ("nodes", "elements", "materials", "sections", "bcs", "loads")


class CanonicalizationError(Exception):
    """Model cannot be put in canonical form (dangling cross-reference)."""


class SchemaParseError(Exception):
    """Malformed IR document; ``path`` points at the offending field."""

    def __init__(self, path: str, reason: str):
        self.path = path
        self.reason = reason
        super().__init__(f"{path}: {reason}")


@dataclass(frozen=True)
class Node:
    id: int
    x: float
    y: float


@dataclass(frozen=True)
class Element:
    id: int
    kind: str
    node_ids: tuple[int, int]
    section_id: int


@dataclass(frozen=True)
class Material:
    id: int
    youngs_modulus: float
    poisson_ratio: float
    density: float


@dataclass(frozen=True)
class Section:
    id: int
    material_id: int
    area: float
    moment_of_inertia: float | None = None


@dataclass(frozen=True)
class BoundaryCondition:
    node_id: int
    constrained_dofs: frozenset[str]

    def sorted_dofs(self) -> tuple[str, ...]:
        return tuple(d for d in DOF_ORDER if d in self.constrained_dofs)


@dataclass(frozen=True)
class Load:
    node_id: int
    fx: float = 0.0
    fy: float = 0.0
    mz: float = 0.0


@dataclass(frozen=True)
class AnalysisSpec:
    mode: str = "static"
    modal_count: int | None = None
    opt_volume_fraction: float | None = None
    opt_max_iterations: int | None = None


@dataclass(frozen=True)
class IRModel:
    nodes: tuple[Node, ...] = ()
    elements: tuple[Element, ...] = ()
    materials: tuple[Material, ...] = ()
    sections: tuple[Section, ...] = ()
    boundary_conditions: tuple[BoundaryCondition, ...] = ()
    loads: tuple[Load, ...] = ()
    analysis: AnalysisSpec = field(default_factory=AnalysisSpec)
    coordinate_mode: str = "metric"
    provenance: str = ""

    def node_positions(self) -> dict[int, tuple[float, float]]:
        return {n.id: (n.x, n.y) for n in self.nodes}


@dataclass(frozen=True)
class ChangeSet:
    """Entity-level difference between two canonical models.

    ``degenerative`` is true exactly when the new model removed entities the
    old one had; pure additions and modifications are never degenerative.
    """

    added: dict[str, tuple[int, ...]]
    removed: dict[str, tuple[int, ...]]
    modified: dict[str, tuple[int, ...]]
    degenerative: bool

    @property
    def empty(self) -> bool:
        return not any(self.added.values()) and not any(self.removed.values()) \
            and not any(self.modified.values())


def _entity_keys(model: IRModel) -> dict[str, dict[int, object]]:
    # BCs and loads carry no id of their own; they are keyed by node id
    # (the schema allows at most one record per node, merged on ingest).
    return {
        "nodes": {n.id: n for n in model.nodes},
        "elements": {e.id: e for e in model.elements},
        "materials": {m.id: m for m in model.materials},
        "sections": {s.id: s for s in model.sections},
        "bcs": {b.node_id: b for b in model.boundary_conditions},
        "loads": {l.node_id: l for l in model.loads},
    }


def canonicalize(model: IRModel) -> IRModel:
    """Sort every entity list by id and store element node pairs ascending.

    Idempotent; raises CanonicalizationError when a cross-reference dangles.
    """
    node_ids = {n.id for n in model.nodes}
    section_ids = {s.id for s in model.sections}
    material_ids = {m.id for m in model.materials}
    for e in model.elements:
        for nid in e.node_ids:
            if nid not in node_ids:
                raise CanonicalizationError(f"element {e.id} references missing node {nid}")
        if e.section_id not in section_ids:
            raise CanonicalizationError(f"element {e.id} references missing section {e.section_id}")
    for s in model.sections:
        if s.material_id not in material_ids:
            raise CanonicalizationError(f"section {s.id} references missing material {s.material_id}")
    for b in model.boundary_conditions:
        if b.node_id not in node_ids:
            raise CanonicalizationError(f"bc references missing node {b.node_id}")
    for l in model.loads:
        if l.node_id not in node_ids:
            raise CanonicalizationError(f"load references missing node {l.node_id}")

    elements = tuple(
        replace(e, node_ids=(min(e.node_ids), max(e.node_ids)))
        for e in sorted(model.elements, key=lambda e: e.id)
    )
    return replace(
        model,
        nodes=tuple(sorted(model.nodes, key=lambda n: n.id)),
        elements=elements,
        materials=tuple(sorted(model.materials, key=lambda m: m.id)),
        sections=tuple(sorted(model.sections, key=lambda s: s.id)),
        boundary_conditions=tuple(sorted(model.boundary_conditions, key=lambda b: b.node_id)),
        loads=tuple(sorted(model.loads, key=lambda l: l.node_id)),
    )


def diff(old: IRModel, new: IRModel) -> ChangeSet:
    """Exact per-entity set difference between two canonical models."""
    old_keys = _entity_keys(old)
    new_keys = _entity_keys(new)
    added: dict[str, tuple[int, ...]] = {}
    removed: dict[str, tuple[int, ...]] = {}
    modified: dict[str, tuple[int, ...]] = {}
    for cls in ENTITY_CLASSES:
        o, n = old_keys[cls], new_keys[cls]
        added[cls] = tuple(sorted(set(n) - set(o)))
        removed[cls] = tuple(sorted(set(o) - set(n)))
        modified[cls] = tuple(sorted(k for k in set(o) & set(n) if o[k] != n[k]))
    degenerative = any(removed[cls] for cls in ENTITY_CLASSES)
    return ChangeSet(added=added, removed=removed, modified=modified, degenerative=degenerative)


# --- text document schema -------------------------------------------------

def _analysis_to_doc(a: AnalysisSpec) -> dict:
    doc: dict = {"mode": a.mode}
    if a.modal_count is not None:
        doc["modal_count"] = a.modal_count
    if a.opt_volume_fraction is not None:
        doc["volfrac"] = a.opt_volume_fraction
    if a.opt_max_iterations is not None:
        doc["max_iterations"] = a.opt_max_iterations
    return doc


def serialize(model: IRModel) -> str:
    """Render the model as the canonical text document (deterministic order)."""
    doc = {
        "nodes": [{"id": n.id, "x": n.x, "y": n.y} for n in model.nodes],
        "elements": [
            {"id": e.id, "kind": e.kind, "nodes": list(e.node_ids), "section": e.section_id}
            for e in model.elements
        ],
        "materials": [
            {"id": m.id, "youngs_modulus": m.youngs_modulus,
             "poisson_ratio": m.poisson_ratio, "density": m.density}
            for m in model.materials
        ],
        "sections": [
            {"id": s.id, "material": s.material_id, "area": s.area}
            | ({} if s.moment_of_inertia is None else {"moment_of_inertia": s.moment_of_inertia})
            for s in model.sections
        ],
        "bcs": [{"node": b.node_id, "dofs": list(b.sorted_dofs())} for b in model.boundary_conditions],
        "loads": [{"node": l.node_id, "fx": l.fx, "fy": l.fy, "mz": l.mz} for l in model.loads],
        "analysis": _analysis_to_doc(model.analysis),
        "coordinate_mode": model.coordinate_mode,
        "provenance": model.provenance,
    }
    return json.dumps(doc, indent=2) + "\n"


class _Reader:
    """Strict walker over a decoded document; errors carry the field path."""

    def __init__(self, doc: object, path: str = "$"):
        self.doc = doc
        self.path = path

    def fail(self, reason: str):
        raise SchemaParseError(self.path, reason)

    def as_object(self, allowed: set[str], required: set[str]) -> dict:
        if not isinstance(self.doc, dict):
            self.fail(f"expected object, got {type(self.doc).__name__}")
        for key in self.doc:
            if key not in allowed:
                raise SchemaParseError(f"{self.path}.{key}", "unknown field")
        for key in required:
            if key not in self.doc:
                raise SchemaParseError(f"{self.path}.{key}", "missing required field")
        return self.doc

    def child(self, key: str, default=None, *, required: bool = True) -> "_Reader":
        assert isinstance(self.doc, dict)
        if key not in self.doc:
            if required:
                raise SchemaParseError(f"{self.path}.{key}", "missing required field")
            return _Reader(default, f"{self.path}.{key}")
        return _Reader(self.doc[key], f"{self.path}.{key}")

    def items(self) -> list["_Reader"]:
        if not isinstance(self.doc, list):
            self.fail(f"expected array, got {type(self.doc).__name__}")
        return [_Reader(v, f"{self.path}[{i}]") for i, v in enumerate(self.doc)]

    def as_int(self) -> int:
        if type(self.doc) is not int:
            self.fail(f"expected integer, got {type(self.doc).__name__}")
        return self.doc

    def as_float(self) -> float:
        if type(self.doc) is bool or not isinstance(self.doc, (int, float)):
            self.fail(f"expected number, got {type(self.doc).__name__}")
        return float(self.doc)

    def as_str(self, choices: tuple[str, ...] | None = None) -> str:
        if not isinstance(self.doc, str):
            self.fail(f"expected string, got {type(self.doc).__name__}")
        if choices is not None and self.doc not in choices:
            self.fail(f"expected one of {choices}, got {self.doc!r}")
        return self.doc


_TOP_KEYS = {"nodes", "elements", "materials", "sections", "bcs", "loads",
             "analysis", "coordinate_mode", "provenance"}


def deserialize(text: str) -> IRModel:
    """Parse an IR document.

    Structurally malformed input (bad syntax, wrong types, unknown fields)
    raises SchemaParseError. Semantic defects such as empty arrays or
    dangling references parse fine and are left to the L1 audit.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaParseError("$", f"invalid document syntax: {exc}") from None

    root = _Reader(raw)
    root.as_object(_TOP_KEYS, _TOP_KEYS - {"provenance"})

    nodes = []
    for r in root.child("nodes").items():
        r.as_object({"id", "x", "y"}, {"id", "x", "y"})
        nodes.append(Node(id=r.child("id").as_int(),
                          x=r.child("x").as_float(), y=r.child("y").as_float()))

    elements = []
    for r in root.child("elements").items():
        r.as_object({"id", "kind", "nodes", "section"}, {"id", "kind", "nodes", "section"})
        pair = r.child("nodes")
        ids = [p.as_int() for p in pair.items()]
        if len(ids) != 2:
            pair.fail(f"expected exactly 2 node ids, got {len(ids)}")
        elements.append(Element(
            id=r.child("id").as_int(),
            kind=r.child("kind").as_str(ELEMENT_KINDS),
            node_ids=(ids[0], ids[1]),
            section_id=r.child("section").as_int(),
        ))

    materials = []
    for r in root.child("materials").items():
        r.as_object({"id", "youngs_modulus", "poisson_ratio", "density"},
                    {"id", "youngs_modulus", "poisson_ratio", "density"})
        materials.append(Material(
            id=r.child("id").as_int(),
            youngs_modulus=r.child("youngs_modulus").as_float(),
            poisson_ratio=r.child("poisson_ratio").as_float(),
            density=r.child("density").as_float(),
        ))

    sections = []
    for r in root.child("sections").items():
        r.as_object({"id", "material", "area", "moment_of_inertia"}, {"id", "material", "area"})
        inertia = None
        if isinstance(r.doc, dict) and "moment_of_inertia" in r.doc:
            inertia = r.child("moment_of_inertia").as_float()
        sections.append(Section(
            id=r.child("id").as_int(),
            material_id=r.child("material").as_int(),
            area=r.child("area").as_float(),
            moment_of_inertia=inertia,
        ))

    bcs = []
    for r in root.child("bcs").items():
        r.as_object({"node", "dofs"}, {"node", "dofs"})
        dofs = frozenset(d.as_str(DOF_ORDER) for d in r.child("dofs").items())
        bcs.append(BoundaryCondition(node_id=r.child("node").as_int(), constrained_dofs=dofs))

    loads = []
    for r in root.child("loads").items():
        r.as_object({"node", "fx", "fy", "mz"}, {"node", "fx", "fy", "mz"})
        loads.append(Load(node_id=r.child("node").as_int(),
                          fx=r.child("fx").as_float(),
                          fy=r.child("fy").as_float(),
                          mz=r.child("mz").as_float()))

    ar = root.child("analysis")
    ar.as_object({"mode", "modal_count", "volfrac", "max_iterations"}, {"mode"})
    mode = ar.child("mode").as_str(ANALYSIS_MODES)
    adoc = ar.doc
    assert isinstance(adoc, dict)
    analysis = AnalysisSpec(
        mode=mode,
        modal_count=ar.child("modal_count").as_int() if "modal_count" in adoc else None,
        opt_volume_fraction=ar.child("volfrac").as_float() if "volfrac" in adoc else None,
        opt_max_iterations=ar.child("max_iterations").as_int() if "max_iterations" in adoc else None,
    )

    return IRModel(
        nodes=tuple(nodes),
        elements=tuple(elements),
        materials=tuple(materials),
        sections=tuple(sections),
        boundary_conditions=tuple(bcs),
        loads=tuple(loads),
        analysis=analysis,
        coordinate_mode=root.child("coordinate_mode").as_str(COORDINATE_MODES),
        provenance=root.child("provenance", default="", required=False).doc or "",
    )


def bounding_box(model: IRModel) -> tuple[float, float, float, float] | None:
    """(xmin, ymin, xmax, ymax) over the node set, or None when empty."""
    if not model.nodes:
        return None
    xs = [n.x for n in model.nodes]
    ys = [n.y for n in model.nodes]
    return min(xs), min(ys), max(xs), max(ys)


def unit_box(points: dict[int, tuple[float, float]]) -> dict[int, tuple[float, float]]:
    """Shift the points' bounding box to the origin and scale its longer side
    to 1 (aspect ratio kept; a single point maps to the origin)."""
    if not points:
        return {}
    xs = [p[0] for p in points.values()]
    ys = [p[1] for p in points.values()]
    x0, y0 = min(xs), min(ys)
    extent = max(max(xs) - x0, max(ys) - y0)
    if extent == 0:
        extent = 1.0
    return {k: ((x - x0) / extent, (y - y0) / extent) for k, (x, y) in points.items()}


def pairs_within(points: Sequence[tuple[float, float]], r: float,
                 others: Sequence[tuple[float, float]] | None = None,
                 ) -> list[tuple[float, int, int]]:
    """Every pair of points at a finite distance d = math.dist(p, q) <= r, as
    (d, i, j) index triples: i < j into ``points``, or, when ``others`` is
    given, i into ``points`` and j into ``others``. A point with a non-finite
    coordinate pairs with nothing, and a NaN or negative r matches nothing.
    Pairs come in no particular order.

    The points are bucketed in a grid of square cells at least r wide, so
    each point is compared only with those in the 3x3 cells around its own
    (Bentley, Stanat & Williams, IPL 1977).
    """
    if not r >= 0:
        return []
    one_set = others is None
    targets = points if one_set else others
    span = max((max(abs(x), abs(y)) for pts in (points, targets) for x, y in pts
                if math.isfinite(x) and math.isfinite(y)), default=0.0)
    # A cell a little wider than r (and never subnormal, where that margin
    # would round away), with every point at most 2**30 cells from the
    # origin, keeps the rounding of x / cell from putting two points within
    # r more than one cell apart, so the 3x3 scan misses no pair, and cell
    # indices small whatever the coordinates. An infinite cell is one cell.
    cell = max(r * (1 + 2 ** -20), span * 2 ** -30, 2 ** -1000)
    limit = min(r, sys.float_info.max)  # an overflowing distance never matches
    grid: dict[tuple[int, int], list[int]] = {}

    def finite_cells(pts):
        for k, (x, y) in enumerate(pts):
            if math.isfinite(x) and math.isfinite(y):
                yield k, math.floor(x / cell), math.floor(y / cell)

    if not one_set:
        for j, cx, cy in finite_cells(others):
            grid.setdefault((cx, cy), []).append(j)
    out: list[tuple[float, int, int]] = []
    for i, cx, cy in finite_cells(points):
        p = points[i]
        for gx in (cx - 1, cx, cx + 1):
            for gy in (cy - 1, cy, cy + 1):
                for j in grid.get((gx, gy), ()):
                    d = math.dist(p, targets[j])
                    if d <= limit:
                        out.append((d, j, i) if one_set else (d, i, j))
        if one_set:  # later points meet this one, so each pair is seen once
            grid.setdefault((cx, cy), []).append(i)
    return out
