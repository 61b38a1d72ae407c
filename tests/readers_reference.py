"""The document readers and writer as they were before the current column
paths, kept as the reference the readers of ``vfea.ir``, ``vfea.perception``
and ``vfea.sandbox`` are checked against (tests/test_ir.py): the generic
``_record``, ``_array`` and ``_id_map`` readers and the finite-number
column, the drawing, IR and results record tables built from them, and the
document writer ``_to_doc``. The leaf readers that did not change are
imported."""

from __future__ import annotations

import itertools
import math
import operator

from vfea import ir
from vfea.ir import (ANALYSIS_MODES, COORDINATE_MODES, DOF_ORDER, ELEMENT_KINDS, _ID_KEY,
                     AnalysisSpec, BoundaryCondition, Element, IRModel, Load, Material, Node,
                     Section, _Defect, _expected, _Field, _float, _floats, _int, _nullable,
                     _one_of, _text, _types)
from vfea.perception import (GLYPH_KINDS, STROKE_CLASSES, DimensionAnnotation, DrawingLabel,
                             LoadArrow, PrimitiveDrawing, Segment, SupportGlyph)
from vfea.sandbox import _RESULT_KINDS
from vfea.solver import ANALYSES, ModalResult, StaticResult, TopoResult


def _finites(values):
    values = _floats(values)
    if values is not None and all(map(math.isfinite, values)):
        return values
    return None


def _finite(value):
    return ir._finite(value)


_finite.column = _finites


def _column(read):
    column = getattr(read, "column", None)
    if column is not None:
        return column

    def mapped(values):
        try:
            return list(map(read, values))
        except (_Defect, ValueError):
            return None
    return mapped


def _array(read_item, length: int | None = None, what: str = "items"):
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
            defect.where.append(len(out))
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


def _id_map(read_value):
    def read(value):
        if not isinstance(value, dict):
            raise _expected("object", value)
        keys = list(value)
        try:
            ids = list(map(int, keys))
        except ValueError:
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


def _record(table, cls):
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


def _to_doc(value, table):
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


# --- the IR document -------------------------------------------------------

_pair = _array(_int, 2, "node ids")
_dofs = _array(_one_of(DOF_ORDER))
_RECORDS = {
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
read_model = _record(_RECORDS, IRModel)

# --- the drawing document --------------------------------------------------

_point = _array(_finite, 2, "coordinates")


def _direction(value):
    x, y = _point(value)
    norm = math.hypot(x, y)
    if norm == 0.0:
        raise _Defect("zero vector")
    if norm == math.inf:
        scale = max(abs(x), abs(y))
        x, y = x / scale, y / scale
        norm = math.hypot(x, y)
    return (x / norm, y / norm)


def _positive(value):
    value = _finite(value)
    if not value > 0:
        raise _Defect(f"expected a positive value, got {value}")
    return value


_DRAWING = {
    Segment: (_Field("p1", "p1", _point), _Field("p2", "p2", _point),
              _Field("class", "stroke_class", _one_of(STROKE_CLASSES))),
    DrawingLabel: (_Field("anchor", "anchor", _point), _Field("text", "text", _text)),
    SupportGlyph: (_Field("anchor", "anchor", _point),
                   _Field("kind", "kind", _one_of(GLYPH_KINDS))),
    LoadArrow: (_Field("anchor", "anchor", _point), _Field("direction", "direction", _direction),
                _Field("magnitude", "magnitude_label", _nullable(_text), required=False)),
    DimensionAnnotation: (_Field("segment", "segment_index", _int),
                          _Field("value_m", "value", _positive)),
}
_DRAWING[PrimitiveDrawing] = tuple(
    _Field(key, key, _array(_record(_DRAWING, cls)), required=False)
    for key, cls in (("segments", Segment), ("labels", DrawingLabel),
                     ("support_glyphs", SupportGlyph), ("load_arrows", LoadArrow),
                     ("dimension_annotations", DimensionAnnotation)))
read_drawing = _record(_DRAWING, PrimitiveDrawing)

# --- the results document --------------------------------------------------

_numbers = _array(_finite)
_triples = _id_map(_array(_finite, 3, "components"))
RESULTS = {
    StaticResult: (_Field("displacements", "displacements", _triples),
                   _Field("reactions", "reactions", _triples),
                   _Field("axial_force", "axial_force", _id_map(_finite)),
                   _Field("axial_stress", "axial_stress", _id_map(_finite)),
                   _Field("frame_end_forces", "frame_end_forces", _id_map(_numbers)),
                   _Field("equilibrium_residual", "equilibrium_residual", _finite)),
    ModalResult: (_Field("frequencies_hz", "frequencies_hz", _numbers),
                  _Field("mode_shapes", "mode_shapes", _array(_triples)),
                  _Field("note", "note", _text, required=False)),
    TopoResult: (_Field("areas", "areas", _id_map(_finite)),
                 _Field("compliance_history", "compliance_history", _numbers),
                 _Field("final_volume_fraction", "final_volume_fraction", _finite)),
}
_RESULT_READERS = {a.kind: _record(RESULTS, a.result) for a in ANALYSES.values()}


def read_result_set(doc):
    if not isinstance(doc, dict):
        raise _expected("object", doc)
    fields = dict(doc)
    tag = fields.pop("result_kind", None)
    if not (type(tag) is str and tag in _RESULT_READERS):
        raise _Defect(f"expected one of {tuple(_RESULT_READERS)}, got {tag!r}", "result_kind")
    return _RESULT_READERS[tag](fields)


def results_doc(rs) -> dict:
    """The results document of ``write_results_file``."""
    return {"result_kind": _RESULT_KINDS[type(rs)], **_to_doc(rs, RESULTS)}
