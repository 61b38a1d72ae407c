"""Per-collection facts: ``ir.COLLECTIONS`` against the code it replaced
(collections_reference.py), the one dangling-reference rule shared by the
audit and the canonical form, and the documented collection table."""

from __future__ import annotations

import math
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import collections_reference as reference
from conftest import two_bar_truss
from vfea.ir import (COLLECTIONS, DOF_ORDER, ELEMENT_KINDS, AnalysisSpec, BoundaryCondition,
                     CanonicalizationError, Element, IRModel, Load, Material, Node, Section,
                     canonicalize, serialize)
from vfea.perception import (LoadArrow, PrimitiveDrawing, ScaleResolution, SupportGlyph,
                             attach_semantics)
from vfea.sandbox import _ModelBuilder
from vfea.validation import check_l1

DOCS = Path(__file__).resolve().parents[1] / "docs"

# Ids from a small range, so that records repeat ids, reference ids that
# no record holds, and include zero and negative ones.
_IDS = st.integers(-1, 5)
_FLOATS = st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e9, math.inf, math.nan])
_DOFS = st.frozensets(st.sampled_from(DOF_ORDER))
_RECORDS = {
    Node: st.builds(Node, _IDS, _FLOATS, _FLOATS),
    Element: st.builds(Element, _IDS, st.sampled_from(ELEMENT_KINDS),
                       st.tuples(_IDS, _IDS) | st.lists(_IDS, min_size=2, max_size=2), _IDS),
    Material: st.builds(Material, _IDS, st.sampled_from([-1.0, 0.0, 210e9, math.nan]),
                        st.sampled_from([0.3, 0.6]), st.sampled_from([0.0, 7850.0])),
    Section: st.builds(Section, _IDS, _IDS, st.sampled_from([-1.0, 0.0, 0.01, math.inf]),
                       st.sampled_from([None, 0.0, 1e-6])),
    BoundaryCondition: st.builds(BoundaryCondition, _IDS, _DOFS),
    Load: st.builds(Load, _IDS, _FLOATS, _FLOATS, _FLOATS),
}
_SPECS = st.sampled_from([AnalysisSpec(), AnalysisSpec("modal", modal_count=3),
                          AnalysisSpec("modal"), AnalysisSpec("topology_optimization"),
                          AnalysisSpec("static", opt_volume_fraction=0.5)])


@st.composite
def _models(draw) -> IRModel:
    """A model with any records, in any order, any collection possibly
    empty, and each one a tuple or a list."""
    lists = {}
    for kind, row in COLLECTIONS.items():
        records = draw(st.lists(_RECORDS[kind], max_size=5))
        lists[row.attr] = records if draw(st.booleans()) else tuple(records)
    return IRModel(**lists, analysis=draw(_SPECS),
                   coordinate_mode=draw(st.sampled_from(["metric", "normalized"])))


def _canonical(call, model):
    """The model ``call`` returns and whether it is the one given, or the
    message it raises."""
    try:
        out = call(model)
    except CanonicalizationError as exc:
        return str(exc)
    return out, out is model


@settings(max_examples=400, deadline=None)
@given(_models())
@example(IRModel())
@example(IRModel(nodes=(Node(1, 0.0, 0.0),), elements=(Element(1, "truss_bar", (1, 2), 3),),
                 sections=(Section(3, 4, 0.01),), boundary_conditions=(BoundaryCondition(5),),
                 loads=(Load(6, 1.0),)))
def test_audit_and_canonical_form_agree_with_the_reference(model):
    """Same findings in the same order, and the same canonical model (the
    given one when it is canonical) or the same error: the message of the
    first dangling-ref finding."""
    findings = check_l1(model)
    assert findings == reference.check_l1(model)
    canonical = _canonical(canonicalize, model)
    assert canonical == _canonical(reference.canonicalize, model)
    dangling = [f.message for f in findings if f.code == "dangling-ref"]
    assert canonical == dangling[0] if dangling else not isinstance(canonical, str)


def _dangling_cases():
    """A clean canonical truss with each reference of each collection made
    to dangle, and two dangling at once, with the message expected first."""
    truss = two_bar_truss()

    def grow(**extra):
        return replace(truss, **{k: getattr(truss, k) + v for k, v in extra.items()})
    return [
        (truss, None),
        (grow(elements=(Element(3, "truss_bar", (1, 9), 1),)),
         "element 3 references missing node 9"),
        (grow(elements=(Element(3, "truss_bar", (8, 1), 1),)),
         "element 3 references missing node 8"),
        (grow(elements=(Element(3, "truss_bar", (1, 2), 7),)),
         "element 3 references missing section 7"),
        (grow(sections=(Section(2, 5, 0.01),)), "section 2 references missing material 5"),
        (grow(boundary_conditions=(BoundaryCondition(9, frozenset({"ux"})),)),
         "bc references missing node 9"),
        (grow(loads=(Load(9, 1.0),)), "load references missing node 9"),
        (grow(loads=(Load(9, 1.0),), sections=(Section(2, 5, 0.01),)),
         "section 2 references missing material 5"),
    ]


@pytest.mark.parametrize("model, message", _dangling_cases())
def test_canonicalize_raises_the_first_dangling_ref_finding(model, message):
    """The one rule: canonicalize raises exactly the message of the audit's
    first dangling-ref finding, and returns a canonical model as it is."""
    dangling = [f.message for f in check_l1(model) if f.code == "dangling-ref"]
    assert dangling[:1] == ([message] if message else [])
    if message is None:
        assert canonicalize(model) is model
    else:
        with pytest.raises(CanonicalizationError) as err:
            canonicalize(model)
        assert str(err.value) == message


@st.composite
def _runs(draw) -> list[list]:
    """Declaration runs, each of one record class, that repeat ids and fix
    or load the same nodes again, with -0.0 among the load components."""
    runs = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from([BoundaryCondition, Load, BoundaryCondition, Load,
                                     Node, Element, Material, Section]))
        runs.append(draw(st.lists(_RECORDS[kind], min_size=1, max_size=5)))
    return runs


@settings(max_examples=300, deadline=None)
@given(_runs(), _SPECS)
@example([[Load(1, -0.0, -0.0, -0.0)], [Load(1, -0.0, 0.0, -0.0)]], AnalysisSpec())
def test_interpreter_model_agrees_with_the_reference(runs, spec):
    """The interpreter's model after the same declarations, each fix or
    load at a node merged with those before it, down to the zero's sign."""
    builder, ref = _ModelBuilder(), reference.ModelBuilder()
    for entities in runs:
        builder.declare(entities)
        ref.declare(entities)
    got, want = builder.to_ir(spec), ref.to_ir(spec)
    # by the document, which shows -0.0 and has a NaN equal to itself
    assert serialize(got) == serialize(want)
    assert check_l1(got) == reference.check_l1(want)


def test_perception_merges_glyphs_and_arrows_at_one_node():
    # two supports and two arrows snap to node 1; the arrows' fx sums from
    # a zero load, so the -0.0 of the vertical arrows stays out of it
    drawing = PrimitiveDrawing(
        support_glyphs=(SupportGlyph((0.0, 0.0), "roller_x"),
                        SupportGlyph((0.5, 0.0), "roller_y")),
        load_arrows=(LoadArrow((0.0, 0.0), (-0.0, -1.0), "2 N"),
                     LoadArrow((0.0, 0.5), (-0.0, -1.0), "3 N"),
                     LoadArrow((10.0, 0.0), (1.0, 0.0))))
    topology = (((1, 0.0, 0.0), (2, 10.0, 0.0)), ((1, 1, 2),))
    model = attach_semantics(drawing, topology, ScaleResolution("metric", 1.0, 1.0), "")
    assert model.boundary_conditions == (BoundaryCondition(1, frozenset({"ux", "uy"})),)
    assert [repr(l) for l in model.loads] == [repr(Load(1, 0.0, -5.0)), repr(Load(2, 1.0))]


class TestCollectionTable:
    def test_one_row_per_model_collection_in_document_order(self):
        attrs = [f.name for f in fields(IRModel)]
        assert [row.attr for row in COLLECTIONS.values()] == attrs[:attrs.index("analysis")]
        assert [row.key for row in COLLECTIONS.values()] == [
            "nodes", "elements", "materials", "sections", "bcs", "loads"]
        for kind, row in COLLECTIONS.items():
            names = {f.name for f in fields(kind)}
            assert row.record is kind and row.keyed_by in names
            assert all(r.field in names and r.target in {c.key for c in COLLECTIONS.values()}
                       for r in row.refs)
            # records keyed by a reference, one per node, are the ones that merge
            assert (row.merge is not None) == any(r.field == row.keyed_by for r in row.refs)

    def test_documented_collections_are_the_rows(self):
        # the collection table of docs/ir-schema.md: key, keyed-by field,
        # references and merge of every collection, in document order
        doc = (DOCS / "ir-schema.md").read_text(encoding="utf-8")
        table = doc.split("| key | keyed by |", 1)[1].split("\n\n", 1)[0]
        rows = [[cell.strip() for cell in line.strip("|").split("|")]
                for line in table.strip().splitlines()[2:]]
        assert rows == [
            [f"`{row.key}`", f"`{row.keyed_by}`",
             ", ".join(f"`{r.field}`{' (each)' if r.many else ''} → `{r.target}`"
                       for r in row.refs) or "none",
             row.merge.__doc__ if row.merge else "none"]
            for row in COLLECTIONS.values()]
