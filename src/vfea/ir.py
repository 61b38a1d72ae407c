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
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

DOF_ORDER = ("ux", "uy", "rz")
COORDINATE_MODES = ("metric", "normalized")


class CanonicalizationError(Exception):
    """Model cannot be put in canonical form (dangling cross-reference);
    unreachable after audit, where the fallback's lowering would fail."""
    stage, kind = "synthesis", "fallback"


class SchemaParseError(Exception):
    """Malformed IR document; ``path`` points at the offending field."""
    stage, kind = "load", "schema"

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
    constrained_dofs: frozenset[str] = frozenset()

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


class ElementKind(NamedTuple):
    """An element kind: its script word, the context ``elements:`` words that
    select it (in any case), the dofs at each of its nodes (a prefix of
    DOF_ORDER, their order in a node's run of dofs), whether its section needs
    a positive moment of inertia, and whether an analysis splits each member
    into its row's ``subdivisions`` pieces."""
    word: str
    directives: tuple[str, ...]
    dofs: tuple[str, ...]
    needs_inertia: bool
    split: bool


# One row per element kind for the script, the context, the audit and the
# solver (docs/ir-schema.md); solver.FORMULATIONS holds the solver's, in this order.
KINDS = {"truss_bar": ElementKind("truss", ("truss", "truss_bar"), DOF_ORDER[:2], False, False),
         "frame_beam": ElementKind("frame", ("frame", "frame_beam"), DOF_ORDER, True, True)}
ELEMENT_KINDS = tuple(KINDS)


# Topology optimisation sizes no bar below this fraction of the largest section area
AREA_FLOOR_RATIO = 1e-6


class ModeParam(NamedTuple):
    """A parameter of an analysis mode: its ``AnalysisSpec`` field, IR key,
    context directive and script keyword; the reader (int or float) of its
    directive value and script token; its range [low, high]; and its prior
    where unset, which perception writes into the IR when ``kept`` (the IR
    must then hold a value) and is otherwise applied where the value is used."""
    attr: str
    key: str
    directive: str
    word: str
    read: type
    low: float
    high: float
    prior: float
    kept: bool = False


class AnalysisMode(NamedTuple):
    """An analysis mode: its script word after ``analyze``, its parameters,
    whether it is driven by mass alone (its densities must be positive and
    its loads may be empty), and the element kinds it accepts."""
    word: str
    params: tuple[ModeParam, ...]
    needs_mass: bool
    element_kinds: tuple[str, ...]

    def values(self, spec: AnalysisSpec) -> tuple:
        """The spec's parameter values, an unset one its prior unless kept."""
        return tuple(p.prior if v is None and not p.kept else v
                     for p in self.params for v in (getattr(spec, p.attr),))


# One row per analysis mode for the spec, the context, the audit and the
# script (docs/ir-schema.md); solver.ANALYSES and certify.CHECKS follow this order.
MODES = {
    "static": AnalysisMode("static", (), needs_mass=False, element_kinds=ELEMENT_KINDS),
    "modal": AnalysisMode(
        "modal", (ModeParam("modal_count", "modal_count", "modal_count", "count", int,
                            low=1, high=math.inf, prior=1, kept=True),),
        needs_mass=True, element_kinds=ELEMENT_KINDS),
    "topology_optimization": AnalysisMode(
        "topopt", (ModeParam("opt_volume_fraction", "volfrac", "volfrac", "volfrac", float,
                             low=AREA_FLOOR_RATIO, high=1.0, prior=0.5),
                   ModeParam("opt_max_iterations", "max_iterations", "opt_iterations", "iters",
                             int, low=1, high=math.inf, prior=50)),
        needs_mass=False, element_kinds=("truss_bar",)),
}
ANALYSIS_MODES = tuple(MODES)


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


class Reference(NamedTuple):
    """A field holding a key of the ``target`` collection (keys, when ``many``)."""
    field: str
    target: str
    many: bool = False


class Collection(NamedTuple):
    """An entity collection: its ``IRModel`` attribute; its document key, also
    its name in a ``ChangeSet``, in finding subjects and, less the plural s,
    in messages; its record class, keying field and references; and how two
    records at one node merge, the first into the empty ``record(node)``."""
    attr: str
    key: str
    record: type
    keyed_by: str
    refs: tuple[Reference, ...] = ()
    merge: Callable[[object, object], object] | None = None

    def keys(self, records) -> Iterator:
        return map(operator.attrgetter(self.keyed_by), records)

    def ingest(self, into: dict, records: Sequence) -> dict:
        """``into``, records by key, with ``records`` added in order: each
        merged with the one at its key, or in its place where none merge."""
        if self.merge is None:
            into.update(zip(self.keys(records), records))
        else:
            for key, record in zip(self.keys(records), records):
                into[key] = self.merge(into.get(key) or self.record(key), record)
        return into

    def dangling(self, records: Sequence, present: dict[str, set]) -> dict[int, list[str]]:
        """The messages of references to keys not ``present`` in their
        collection, by the position of their record, in field order. A
        record keyed by one of its references is named without its key."""
        out: dict[int, list[str]] = {}
        for ref in self.refs:
            values = list(map(operator.attrgetter(ref.field), records))
            keys = present[ref.target]
            if keys.issuperset(itertools.chain.from_iterable(values) if ref.many else values):
                continue  # the common case, screened at once
            for k, value in enumerate(values):
                missing = [key for key in (value if ref.many else (value,)) if key not in keys]
                if missing:
                    name = self.key[:-1] + ("" if ref.field == self.keyed_by
                                            else f" {getattr(records[k], self.keyed_by)}")
                    out.setdefault(k, []).extend(
                        f"{name} references missing {ref.target[:-1]} {key}" for key in missing)
        return out


def _union_dofs(a: BoundaryCondition, b: BoundaryCondition) -> BoundaryCondition:
    """the union of their dofs"""
    return BoundaryCondition(a.node_id, a.constrained_dofs | b.constrained_dofs)


def _sum_loads(a: Load, b: Load) -> Load:
    """the componentwise sum, from a zero load"""
    return Load(a.node_id, a.fx + b.fx, a.fy + b.fy, a.mz + b.mz)


# One row per entity collection, by record class, in document order
# (docs/ir-schema.md). A bc or load has no id: it is keyed by its node, one
# record per node, and records at one node merge on ingest.
COLLECTIONS = {row.record: row for row in (
    Collection("nodes", "nodes", Node, "id"),
    Collection("elements", "elements", Element, "id",
               (Reference("node_ids", "nodes", many=True), Reference("section_id", "sections"))),
    Collection("materials", "materials", Material, "id"),
    Collection("sections", "sections", Section, "id", (Reference("material_id", "materials"),)),
    Collection("boundary_conditions", "bcs", BoundaryCondition, "node_id",
               (Reference("node_id", "nodes"),), _union_dofs),
    Collection("loads", "loads", Load, "node_id", (Reference("node_id", "nodes"),), _sum_loads),
)}
_REFERENCED = {r.target for row in COLLECTIONS.values() for r in row.refs}


_ID = operator.attrgetter("id")
_NODE_IDS = operator.attrgetter("node_ids")
_KIND = operator.attrgetter("kind")
_SECTION_ID = operator.attrgetter("section_id")


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
    """Sort every entity list by its key and store element node pairs ascending.

    Only what is out of place is rebuilt: a list already in key order and an
    element whose pair is already ascending are kept, so a canonical model
    comes back as the same object. Idempotent; raises CanonicalizationError
    with the first dangling cross-reference, in document order.
    """
    present = {row.key: set(row.keys(getattr(model, row.attr)))
               for row in COLLECTIONS.values() if row.key in _REFERENCED}
    for row in COLLECTIONS.values():
        dangling = row.dangling(getattr(model, row.attr), present)
        if dangling:
            raise CanonicalizationError(dangling[min(dangling)][0])

    lists = {row.attr: _by_key(getattr(model, row.attr), operator.attrgetter(row.keyed_by))
             for row in COLLECTIONS.values()}
    pairs = tuple(map(_ascending, lists["elements"]))
    if any(map(operator.is_not, pairs, lists["elements"])):
        lists["elements"] = pairs
    if all(lists[name] is getattr(model, name) for name in lists):
        return model
    return replace(model, **lists)


def diff(old: IRModel, new: IRModel) -> ChangeSet:
    """Exact per-entity set difference between two canonical models."""
    added: dict[str, tuple[int, ...]] = {}
    removed: dict[str, tuple[int, ...]] = {}
    modified: dict[str, tuple[int, ...]] = {}
    for row in COLLECTIONS.values():
        o, n = (dict(zip(row.keys(records), records))
                for records in (getattr(old, row.attr), getattr(new, row.attr)))
        added[row.key] = tuple(sorted(set(n) - set(o)))
        removed[row.key] = tuple(sorted(set(o) - set(n)))
        modified[row.key] = tuple(sorted(k for k in set(o) & set(n) if o[k] != n[k]))
    degenerative = any(removed.values())
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
    # a finite sum has no inf or nan among its terms
    if values is not None and (math.isfinite(sum(values)) or all(map(math.isfinite, values))):
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


# an id as ``str`` writes it, so each id has one key; and a comma-joined list of them
_ID_TEXT = r"(?:0|-?[1-9][0-9]*)"
_ID_KEY = re.compile(_ID_TEXT)
_ID_KEYS = re.compile(f"(?:{_ID_TEXT}(?:,{_ID_TEXT})*)?")


def _id_map(read_value):
    """Reader of an object keyed by decimal ids, as a map from int ids. The
    ids are read at once when every key is one as ``str`` writes it, which
    is exactly when ``_ID_KEY`` matches it; the values then as one column."""
    def read(value):
        if not isinstance(value, dict):
            raise _expected("object", value)
        try:
            # every key is one as ``str`` writes it when their comma-joined
            # list matches and each reads as an int: a key with a comma in
            # it does not
            ids = list(map(int, value)) if _ID_KEYS.fullmatch(",".join(value)) else None
        except ValueError:  # a comma in a key, or too long an id
            ids = None
        if ids is not None:
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

    Its ``column`` reads a list of objects that share one key set, in any
    key order, made of the table's first fields: each field as one column,
    each object built from its row of columns. A table lists the fields in
    the order of ``cls``'s constructor, so an absent trailing field takes
    the constructor's default."""
    fields = table[cls]
    known = {f.key for f in fields}
    required = {f.key for f in fields if f.required}
    columns = [(operator.itemgetter(f.key), _column(f.read)) for f in fields]
    # the key counts of the objects a column reads: the first n fields
    # include every required one
    shapes = {n for n in range(len(fields) + 1)
              if required <= {f.key for f in fields[:n]}}

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
        sizes = set(map(len, docs))
        n = sizes.pop()
        if sizes or n not in shapes:
            return None
        # each object has n keys, and each of the first n fields' keys is
        # found in it (a KeyError otherwise): its keys are exactly those
        values = []
        try:
            for get, bulk in columns[:n]:
                values.append(bulk(list(map(get, docs))))
                if values[-1] is None:
                    return None
        except KeyError:
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
    ones left out; a tuple as an array; a map by its keys in ascending
    order, as strings; a dof set in DOF_ORDER. A map from ints to floats,
    or to tuples of floats, in key order is its own document form."""
    if isinstance(value, (float, int, str)):
        return value
    fields = table.get(type(value))
    if fields is not None:
        return {f.key: _to_doc(v, table) for f in fields
                if (v := getattr(value, f.attr)) is not None}
    if isinstance(value, (tuple, list)):
        return [_to_doc(v, table) for v in value]
    if isinstance(value, dict):
        keys = list(value)
        if not all(map(operator.lt, keys, keys[1:])):  # not in ascending key order
            value = dict(sorted(value.items()))
        values = value.values()
        kinds = _types(values)
        if _types(value) <= {int} and (kinds <= {float} or (
                kinds <= {tuple} and _types(itertools.chain.from_iterable(values)) <= {float})):
            return value  # JSON writes an int key as str does, and a tuple as an array
        return {str(k): _to_doc(v, table) for k, v in value.items()}
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
                   *(_Field(p.key, p.attr, {int: _int, float: _float}[p.read], required=False)
                     for row in MODES.values() for p in row.params)),
}
_RECORDS[IRModel] = (
    *(_Field(row.key, row.attr, _array(_record(_RECORDS, row.record)))
      for row in COLLECTIONS.values()),
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


# Array views of entity lists for passes over every node or element. Ids
# stay Python ints, of any size: they are only hashed, never put in arrays.

def _coordinates(nodes) -> np.ndarray:
    """The nodes' (x, y), as an (n, 2) float array in list order."""
    n = len(nodes)
    return np.column_stack((np.fromiter((p.x for p in nodes), float, n),
                            np.fromiter((p.y for p in nodes), float, n)))


def _endpoints(elements) -> list[int]:
    """The elements' node ids, two per element, in list order."""
    return list(itertools.chain.from_iterable(map(_NODE_IDS, elements)))


def _rows(ids, keys, missing: int | None = None) -> np.ndarray:
    """The position in ``ids`` of each key, as an index array: the last
    position of an id listed twice, and ``missing`` for a key not listed
    (KeyError when ``missing`` is None)."""
    where = dict(zip(ids, itertools.count()))
    found = (map(where.__getitem__, keys) if missing is None
             else map(where.get, keys, itertools.repeat(missing)))
    return np.fromiter(found, np.intp)


def _distances(p: np.ndarray, q, *bounds: float) -> np.ndarray:
    """The distance math.dist(p, q) of each row p of an (m, 2) array from
    the row of ``q`` it broadcasts with, by ``np.hypot``. It and math.dist
    err by a few units in the last place at most, so a distance within a
    relative 2**-40 (or a few subnormals) of one of ``bounds`` is measured
    by math.dist itself: compared with the bounds by <, <= or ==, every
    distance gives math.dist's answer."""
    with np.errstate(over="ignore", invalid="ignore"):  # a difference may overflow
        d = p - q
        out = np.hypot(d[:, 0], d[:, 1])
        b = np.array(bounds, float)[:, None]
        near = ((out >= b * (1 - 2 ** -40) - 2 ** -1070)
                & (out <= b * (1 + 2 ** -40) + 2 ** -1070)).any(axis=0)
    k = np.flatnonzero(near)
    out[k] = np.fromiter(map(math.hypot, d[k, 0].tolist(), d[k, 1].tolist()), float, k.size)
    return out


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
    and measured by ``_distances``.
    """
    p_xy = np.asarray(points, dtype=float).reshape(-1, 2)
    if not r >= 0:
        return np.zeros(0, np.intp), np.zeros(0, np.intp)
    one_set = others is None
    t_xy = p_xy if one_set else np.asarray(others, dtype=float).reshape(-1, 2)
    p_idx = np.flatnonzero(np.isfinite(p_xy).all(axis=1))
    t_idx = p_idx if one_set else np.flatnonzero(np.isfinite(t_xy).all(axis=1))
    span = max(float(np.abs(xy.take(idx, axis=0)).max(initial=0.0))
               for xy, idx in ((p_xy, p_idx), (t_xy, t_idx)))
    # A cell a little wider than r (and never subnormal, where that margin
    # would round away), with every point at most 2**30 cells from the
    # origin, keeps the rounding of x / cell from putting two points within
    # r more than one cell apart, so the 3x3 scan misses no pair, and cell
    # indices small whatever the coordinates. An infinite cell is one cell.
    cell = max(r * (1 + 2 ** -20), span * 2 ** -30, 2 ** -1000)
    limit = min(r, sys.float_info.max)  # an overflowing distance never matches

    def cell_keys(xy, idx):
        c = np.floor(xy.take(idx, axis=0) / cell).astype(np.int64) + _CELL_OFFSET
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
    # take gathers rows at a fraction of the cost of p_xy[i]
    accept = _distances(p_xy.take(i, axis=0), t_xy.take(j, axis=0), limit) <= limit
    return i[accept], j[accept]
