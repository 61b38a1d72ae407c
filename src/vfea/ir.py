"""Solver-agnostic intermediate model: types, canonical form, diffing, text schema.

The serialized document format is frozen in docs/ir-schema.md and is the
single source of truth for the schema-integrity audit.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import re
import sys
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

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


# conservative priors of a topology optimisation that leaves its parameters unset
DEFAULT_VOLFRAC = 0.5
DEFAULT_OPT_ITERS = 50


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


_ID = operator.attrgetter("id")
_NODE_ID = operator.attrgetter("node_id")


def _by_key(items: tuple, key: Callable) -> tuple:
    """``items`` as a tuple sorted by ``key``; a tuple already in key order
    (no key below the one before it, which is exactly when the stable sort
    would keep it) is returned as it is, after one linear check."""
    keys = [key(x) for x in items]
    if type(items) is tuple and not any(map(operator.lt, keys[1:], keys)):
        return items
    return tuple(sorted(items, key=key))


def _ascending(e: Element) -> Element:
    p = e.node_ids
    if type(p) is tuple and len(p) == 2 and p[0] <= p[1]:
        return e
    return replace(e, node_ids=(min(p), max(p)))


def canonicalize(model: IRModel) -> IRModel:
    """Sort every entity list by id and store element node pairs ascending.

    Only what is out of place is rebuilt: a list already in id order and an
    element whose pair is already ascending are kept, so a canonical model
    comes back as the same object. Idempotent; raises CanonicalizationError
    when a cross-reference dangles.
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

    elements = _by_key(model.elements, _ID)
    pairs = tuple(map(_ascending, elements))
    if any(map(operator.is_not, pairs, elements)):
        elements = pairs
    lists = {
        "nodes": _by_key(model.nodes, _ID),
        "elements": elements,
        "materials": _by_key(model.materials, _ID),
        "sections": _by_key(model.sections, _ID),
        "boundary_conditions": _by_key(model.boundary_conditions, _NODE_ID),
        "loads": _by_key(model.loads, _NODE_ID),
    }
    if all(lists[name] is getattr(model, name) for name in lists):
        return model
    return replace(model, **lists)


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
#
# One reader serves every JSON document of the package: a record table maps
# each record class to its fields, and ``_record(table, cls)`` reads one
# object of ``cls`` by it. The IR document's table is ``_RECORDS`` below;
# perception and the sandbox declare their own for drawings and results.

class _Defect(Exception):
    """A schema defect in the value being read. ``where`` gathers the keys
    and indices that lead to it, innermost first, as it propagates up;
    ``path`` renders them as ``$.a[0].b`` once it reaches the top."""

    def __init__(self, reason: str, *where: str | int):
        self.reason = reason
        self.where = list(where)

    @property
    def path(self) -> str:
        return "$" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}"
                             for p in reversed(self.where))


def _expected(what: str, value: object) -> _Defect:
    return _Defect(f"expected {what}, got {type(value).__name__}")


# Bulk reading. A reader may carry a ``column`` function that reads a whole
# list of values at once, with one check per column, and returns the list
# of what the reader would return for each, or None when any value is
# irregular in any way. Arrays and id maps try it first and read item by
# item only when it returns None, so a defect is always found and named by
# the item-by-item reader.

def _types(values) -> set:
    return set(map(type, values))


def _int(value):
    if type(value) is not int:
        raise _expected("integer", value)
    return value


def _float(value):
    if type(value) is float:
        return value
    if type(value) is not int:  # a bool too
        raise _expected("number", value)
    try:
        return float(value)
    except OverflowError:
        raise _Defect("number out of float range") from None


def _finite(value):
    if type(value) is not float:
        value = _float(value)
    if not math.isfinite(value):
        raise _Defect(f"expected a finite number, got {value}")
    return value


def _text(value):
    if not isinstance(value, str):
        raise _expected("string", value)
    return value


def _one_of(choices: tuple[str, ...]):
    def read(value):
        if _text(value) not in choices:
            raise _Defect(f"expected one of {choices}, got {value!r}")
        return value

    def column(values):
        if _types(values) <= {str} and set(values).issubset(choices):
            return values
        return None
    read.column = column
    return read


def _floats(values):
    types = _types(values)
    if types <= {float}:
        return values
    if types <= {float, int}:
        try:
            return list(map(float, values))
        except OverflowError:
            return None
    return None


def _finites(values):
    values = _floats(values)
    if values is not None and all(map(math.isfinite, values)):
        return values
    return None


_int.column = lambda values: values if _types(values) <= {int} else None
_float.column = _floats
_finite.column = _finites


def _column(read):
    """The bulk reader of ``read``: its own ``column``, or else ``read``
    mapped over the values, None at the first defect."""
    column = getattr(read, "column", None)
    if column is not None:
        return column

    def mapped(values):
        try:
            return list(map(read, values))
        except (_Defect, ValueError):  # met again, and named, item by item
            return None
    return mapped


def _array(read_item, length: int | None = None, what: str = "items"):
    """Reader of an array, of exactly ``length`` items when one is given;
    then its ``column`` reads a list of such arrays through one flat column."""
    def read(value):
        if not isinstance(value, list):
            raise _expected("array", value)
        if length is not None and len(value) != length:
            raise _Defect(f"expected exactly {length} {what}, got {len(value)}")
        out = _column(read_item)(value)
        if out is not None:
            return tuple(out)
        out = []
        try:
            for item in value:
                out.append(read_item(item))
        except _Defect as defect:
            defect.where.append(len(out))  # the index of the item that failed
            raise
        return tuple(out)

    def column(values):
        if not _types(values) <= {list} or list(map(len, values)).count(length) != len(values):
            return None
        flat = _column(read_item)(list(itertools.chain.from_iterable(values)))
        if flat is None:
            return None
        return list(zip(*[iter(flat)] * length))
    if length:
        read.column = column
    return read


# an id as ``str`` writes it, so each id has one key
_ID_KEY = re.compile(r"0|-?[1-9][0-9]*")


def _id_map(read_value):
    """Reader of an object keyed by decimal ids, as a map from int ids. The
    ids are read at once when every key is one as ``str`` writes it, which
    is exactly when ``_ID_KEY`` matches it."""
    def read(value):
        if not isinstance(value, dict):
            raise _expected("object", value)
        keys = list(value)
        try:
            ids = list(map(int, keys))
        except ValueError:  # not a number, or too long a one
            ids = None
        if ids is not None and list(map(str, ids)) == keys:
            out = _column(read_value)(list(value.values()))
            if out is not None:
                return dict(zip(ids, out))
        out = {}
        try:
            for key, item in value.items():
                if not _ID_KEY.fullmatch(key):
                    raise _Defect(f"expected an integer id, got {key!r}")
                out[int(key)] = read_value(item)
        except _Defect as defect:
            defect.where.append(key)
            raise
        return out
    return read


def _nullable(read):
    return lambda value: None if value is None else read(value)


_pair = _array(_int, 2, "node ids")
_dofs = _array(_one_of(DOF_ORDER))


class _Field(NamedTuple):
    key: str       # document key
    attr: str      # attribute of the model object
    read: Callable[[object], object]
    required: bool = True


def _record(table: dict[type, tuple[_Field, ...]], cls: type):
    """Reader of one object of ``cls`` by its fields in ``table``: its keys
    must all be known and the required ones present (the first one missing
    in table order is named), and each field is read in table order.

    Its ``column`` reads a list of objects that share one key set, in one
    key order, made of the table's first fields: each field as one column,
    each object built from its row of columns. A table lists the fields in
    the order of ``cls``'s constructor, so an absent trailing field takes
    the constructor's default."""
    fields = table[cls]
    known = {f.key for f in fields}
    required = {f.key for f in fields if f.required}
    columns = [(operator.itemgetter(f.key), _column(f.read)) for f in fields]

    def read(doc):
        if not isinstance(doc, dict):
            raise _expected("object", doc)
        if not known.issuperset(doc):
            raise _Defect("unknown field", next(k for k in doc if k not in known))
        if not required.issubset(doc):
            raise _Defect("missing required field",
                          next(f.key for f in fields if f.required and f.key not in doc))
        values = {}
        try:
            for key, attr, read_value, _ in fields:
                if key in doc:
                    values[attr] = read_value(doc[key])
        except _Defect as defect:
            defect.where.append(key)
            raise
        return cls(**values)

    def column(docs):
        if not docs:
            return []
        if not _types(docs) <= {dict}:
            return None
        shapes = set(map(tuple, docs))
        if len(shapes) != 1:
            return None
        keys = set(shapes.pop())
        n = len(keys)
        if not (required <= keys and {f.key for f in fields[:n]} == keys):
            return None
        values = []
        for get, bulk in columns[:n]:
            values.append(bulk(list(map(get, docs))))
            if values[-1] is None:
                return None
        return list(map(cls, *values))
    read.column = column
    return read


def _read_json(read, text: str):
    """``read`` applied to the JSON document ``text``; text that is not one
    (bad syntax, nesting too deep, an overlong integer) is a defect at ``$``."""
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise _Defect(f"invalid document syntax: {exc}") from None
    return read(raw)


def _to_doc(value, table: dict[type, tuple[_Field, ...]]):
    """The document form of a value: a record's fields in table order, None
    ones left out; a tuple as an array; a map by its keys in order, as
    strings; a dof set in DOF_ORDER."""
    if isinstance(value, (float, int, str)):
        return value
    fields = table.get(type(value))
    if fields is not None:
        return {f.key: _to_doc(v, table) for f in fields
                if (v := getattr(value, f.attr)) is not None}
    if isinstance(value, (tuple, list)):
        return [_to_doc(v, table) for v in value]
    if isinstance(value, dict):
        items = sorted(value.items())
        kinds = _types(value.values())
        if kinds <= {float}:
            return {str(k): v for k, v in items}
        if kinds <= {tuple} and _types(itertools.chain.from_iterable(value.values())) <= {float}:
            return {str(k): list(v) for k, v in items}
        return {str(k): _to_doc(v, table) for k, v in items}
    if isinstance(value, (set, frozenset)):
        return [d for d in DOF_ORDER if d in value]
    return value


# Every record kind of the IR document, each field in the documented key
# order (docs/ir-schema.md). Optional fields default to the attribute's
# default on reading and are left out when None on writing.
_RECORDS: dict[type, tuple[_Field, ...]] = {
    Node: (_Field("id", "id", _int), _Field("x", "x", _float), _Field("y", "y", _float)),
    Element: (_Field("id", "id", _int), _Field("kind", "kind", _one_of(ELEMENT_KINDS)),
              _Field("nodes", "node_ids", _pair), _Field("section", "section_id", _int)),
    Material: (_Field("id", "id", _int), _Field("youngs_modulus", "youngs_modulus", _float),
               _Field("poisson_ratio", "poisson_ratio", _float),
               _Field("density", "density", _float)),
    Section: (_Field("id", "id", _int), _Field("material", "material_id", _int),
              _Field("area", "area", _float),
              _Field("moment_of_inertia", "moment_of_inertia", _float, required=False)),
    BoundaryCondition: (_Field("node", "node_id", _int),
                        _Field("dofs", "constrained_dofs", lambda v: frozenset(_dofs(v)))),
    Load: (_Field("node", "node_id", _int), _Field("fx", "fx", _float),
           _Field("fy", "fy", _float), _Field("mz", "mz", _float)),
    AnalysisSpec: (_Field("mode", "mode", _one_of(ANALYSIS_MODES)),
                   _Field("modal_count", "modal_count", _int, required=False),
                   _Field("volfrac", "opt_volume_fraction", _float, required=False),
                   _Field("max_iterations", "opt_max_iterations", _int, required=False)),
}
_RECORDS[IRModel] = (
    _Field("nodes", "nodes", _array(_record(_RECORDS, Node))),
    _Field("elements", "elements", _array(_record(_RECORDS, Element))),
    _Field("materials", "materials", _array(_record(_RECORDS, Material))),
    _Field("sections", "sections", _array(_record(_RECORDS, Section))),
    _Field("bcs", "boundary_conditions", _array(_record(_RECORDS, BoundaryCondition))),
    _Field("loads", "loads", _array(_record(_RECORDS, Load))),
    _Field("analysis", "analysis", _record(_RECORDS, AnalysisSpec)),
    _Field("coordinate_mode", "coordinate_mode", _one_of(COORDINATE_MODES)),
    _Field("provenance", "provenance", _text, required=False),
)
_read_model = _record(_RECORDS, IRModel)


def serialize(model: IRModel) -> str:
    """Render the model as the canonical text document (deterministic order)."""
    return json.dumps(_to_doc(model, _RECORDS), indent=2) + "\n"


def deserialize(text: str) -> IRModel:
    """Parse an IR document.

    Structurally malformed input (bad syntax, wrong types, unknown fields,
    numbers beyond the float range) raises SchemaParseError. Semantic
    defects such as empty arrays or dangling references parse fine and are
    left to the L1 audit.
    """
    try:
        return _read_json(_read_model, text)
    except _Defect as defect:
        raise SchemaParseError(defect.path, defect.reason) from None


def bounding_box(points: Iterable[tuple[float, float]]
                 ) -> tuple[float, float, float, float] | None:
    """(xmin, ymin, xmax, ymax) over the points with finite coordinates, or
    None when there are none. A non-finite point is skipped, so the box does
    not depend on where such a point is listed."""
    finite = [p for p in points if math.isfinite(p[0]) and math.isfinite(p[1])]
    if not finite:
        return None
    xs = [p[0] for p in finite]
    ys = [p[1] for p in finite]
    return min(xs), min(ys), max(xs), max(ys)


def unit_box(points: dict[int, tuple[float, float]]) -> dict[int, tuple[float, float]]:
    """Shift the points' bounding box to the origin and scale its longer side
    to 1 (aspect ratio kept; a single point maps to the origin). The box
    spans the finite points; without any, the points are returned as they are."""
    box = bounding_box(points.values())
    if box is None:
        return dict(points)
    x0, y0, x1, y1 = box
    extent = max(x1 - x0, y1 - y0)
    if extent == 0:
        extent = 1.0
    return {k: ((x - x0) / extent, (y - y0) / extent) for k, (x, y) in points.items()}


# Cell indices lie within 2**30 + 1 of zero (see pairs_within), so a cell
# and its eight neighbours pack into one int64 key, row-major.
_CELL_OFFSET = 2 ** 30 + 1
_CELL_ROW = 2 * _CELL_OFFSET + 1
_NEIGHBOURS = np.array([dx * _CELL_ROW + dy for dx in (-1, 0, 1) for dy in (-1, 0, 1)],
                       dtype=np.int64)


def pairs_within(points, r: float, others=None) -> tuple[np.ndarray, np.ndarray]:
    """Every pair of points (x, y) at a finite distance math.dist(p, q) <= r,
    as index arrays (i, j): i < j into ``points``, or, when ``others`` is
    given, i into ``points`` and j into ``others``. A point with a non-finite
    coordinate pairs with nothing, and a NaN or negative r matches nothing.
    Pairs come in no particular order.

    The points are keyed by the square cell, at least r wide, that holds
    them, so each point is compared only with those in the 3x3 cells around
    its own (Bentley, Stanat & Williams, IPL 1977). The candidates are found
    with numpy, by sorting the keys and searching each neighbour cell's key,
    and screened by ``np.hypot`` of their differences. Both it and
    ``math.dist`` err by a few units in the last place at most, so only a
    candidate within a relative 2**-40 of r (or a few subnormals of it) is
    decided by ``math.dist`` itself.
    """
    p_xy = np.asarray(points, dtype=float).reshape(-1, 2)
    if not r >= 0:
        return np.zeros(0, np.intp), np.zeros(0, np.intp)
    one_set = others is None
    t_xy = p_xy if one_set else np.asarray(others, dtype=float).reshape(-1, 2)
    p_idx = np.flatnonzero(np.isfinite(p_xy).all(axis=1))
    t_idx = p_idx if one_set else np.flatnonzero(np.isfinite(t_xy).all(axis=1))
    span = max(float(np.abs(xy[idx]).max(initial=0.0))
               for xy, idx in ((p_xy, p_idx), (t_xy, t_idx)))
    # A cell a little wider than r (and never subnormal, where that margin
    # would round away), with every point at most 2**30 cells from the
    # origin, keeps the rounding of x / cell from putting two points within
    # r more than one cell apart, so the 3x3 scan misses no pair, and cell
    # indices small whatever the coordinates. An infinite cell is one cell.
    cell = max(r * (1 + 2 ** -20), span * 2 ** -30, 2 ** -1000)
    limit = min(r, sys.float_info.max)  # an overflowing distance never matches

    def cell_keys(xy, idx):
        c = np.floor(xy[idx] / cell).astype(np.int64) + _CELL_OFFSET
        return c[:, 0] * _CELL_ROW + c[:, 1]

    p_keys = cell_keys(p_xy, p_idx)
    t_keys = p_keys if one_set else cell_keys(t_xy, t_idx)
    order = np.argsort(t_keys, kind="stable")
    sorted_keys = t_keys[order]
    p_order = order if one_set else np.argsort(p_keys, kind="stable")
    # every (point, neighbour cell) query, and the run of targets in that
    # cell; the queries come as one ascending run per neighbour offset,
    # which the binary searches walk faster than scattered ones
    queries = (_NEIGHBOURS[:, None] + p_keys[p_order]).ravel()
    lo = np.searchsorted(sorted_keys, queries, side="left")
    counts = np.searchsorted(sorted_keys, queries, side="right") - lo
    first = np.repeat(lo - (np.cumsum(counts) - counts), counts)
    i = np.repeat(np.tile(p_idx[p_order], len(_NEIGHBOURS)), counts)
    j = t_idx[order[first + np.arange(len(first))]]
    if one_set:  # each pair once, never a point with itself
        keep = i < j
        i, j = i[keep], j[keep]
    with np.errstate(over="ignore", invalid="ignore"):  # a difference may overflow
        d = np.hypot(p_xy[i, 0] - t_xy[j, 0], p_xy[i, 1] - t_xy[j, 1])
    accept = d < r * (1 - 2 ** -40) - 2 ** -1070
    near = np.flatnonzero(~accept & (d <= r * (1 + 2 ** -40) + 2 ** -1070))
    dist = math.dist
    accept[[k for k in near.tolist()
            if dist(p_xy[i[k]].tolist(), t_xy[j[k]].tolist()) <= limit]] = True
    return i[accept], j[accept]
