"""Per-kind facts: ``ir.KINDS`` against the branches it replaced
(element_kinds_reference.py), each row's script and context words, and the
documented element-kind table."""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import element_kinds_reference as reference
from conftest import STEEL
from vfea import solver
from vfea.ir import (DOF_ORDER, ELEMENT_KINDS, KINDS, AnalysisSpec, BoundaryCondition, Element,
                     IRModel, Load, Node, Section)
from vfea.perception import PerceptionError, parse_context
from vfea.simscript import Declare, ScriptParseError, lower_ir, parse_script
from vfea.validation import check_l1

DOCS = Path(__file__).resolve().parents[1] / "docs"

# Sections with a positive, a zero, a negative and no moment of inertia.
_SECTIONS = (Section(1, 1, 0.01, 1e-6), Section(2, 1, 0.02), Section(3, 1, 0.01, 0.0),
             Section(4, 1, 0.03, -1e-6))
_SPECS = st.sampled_from([AnalysisSpec(), AnalysisSpec("modal", modal_count=3),
                          AnalysisSpec("topology_optimization")])


@st.composite
def mixed_models(draw) -> IRModel:
    """Elements of a random kind each, on a random section each, between
    nodes on a small grid (some on top of others, so some elements have zero
    length), with moment loads and rz fixes, under any mode."""
    n = draw(st.integers(2, 6))
    ids = draw(st.lists(st.integers(1, 40), min_size=n, max_size=n, unique=True))
    points = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                           min_size=n, max_size=n))
    pairs = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids))
                          .filter(lambda p: p[0] != p[1]), min_size=1, max_size=8))
    elem_ids = draw(st.lists(st.integers(1, 60), min_size=len(pairs), max_size=len(pairs),
                             unique=True))
    elements = [Element(i, draw(st.sampled_from(ELEMENT_KINDS)), p,
                        draw(st.sampled_from([s.id for s in _SECTIONS])))
                for i, p in zip(elem_ids, pairs)]
    node = st.sampled_from(ids)
    dofs = st.frozensets(st.sampled_from(["ux", "uy", "rz"]), min_size=1)
    bcs = draw(st.dictionaries(node, dofs, min_size=1, max_size=3))
    loads = draw(st.dictionaries(node, st.tuples(*[st.sampled_from([0.0, 5.0, -2.0])] * 3),
                                 max_size=3))
    return IRModel(
        nodes=tuple(Node(i, float(x), float(y)) for i, (x, y) in zip(ids, points)),
        elements=tuple(draw(st.permutations(elements))), materials=(STEEL,), sections=_SECTIONS,
        boundary_conditions=tuple(BoundaryCondition(n, d) for n, d in bcs.items()),
        loads=tuple(Load(n, *v) for n, v in loads.items()), analysis=draw(_SPECS))


def _system(assemble, model: IRModel, n_sub: int):
    """The dof layout, K and M data, f, constrained dofs and group ids and
    kinds of the split model, or the SolverError message."""
    try:
        layout, K, M, f, constrained, groups = assemble(model, n_sub)
    except solver.SolverError as exc:
        return str(exc)
    return (layout,
            *(getattr(a, part).tobytes() for a in (K, M) for part in ("data", "indices", "indptr")),
            f.tobytes(), constrained, [(g.kind, g.ids.tolist()) for g in groups])


def _table_assemble(model: IRModel, n_sub: int):
    s = solver.assemble(model, n_sub)
    return ((s.node_ids, s.node_dofs.tolist(), s.n_dofs), s.K, s.M, s.f, s.constrained,
            s.groups)


# A zero-length frame beam (nodes 1 and 2 coincide) and a frame beam without
# inertia, in both id orders: the lower id's fault is the one raised.
_BOTH_FAULTS = [
    IRModel(nodes=(Node(1, 0.0, 0.0), Node(2, 0.0, 0.0), Node(3, 1.0, 0.0)),
            elements=(Element(a, "frame_beam", (1, 2), 1), Element(b, "frame_beam", (2, 3), 2),
                      Element(3, "truss_bar", (1, 3), 2)),
            materials=(STEEL,), sections=_SECTIONS,
            boundary_conditions=(BoundaryCondition(1, frozenset({"ux", "uy", "rz"})),),
            loads=(Load(3, 0.0, -1.0, 2.0),), analysis=spec)
    for a, b in ((1, 2), (2, 1)) for spec in (AnalysisSpec(), AnalysisSpec("modal", modal_count=3))]


@settings(max_examples=300, deadline=None)
@given(mixed_models())
@example(_BOTH_FAULTS[0])
@example(_BOTH_FAULTS[1])
@example(_BOTH_FAULTS[2])
@example(_BOTH_FAULTS[3])
def test_kind_rows_agree_with_the_branches(model):
    """The same split system (or SolverError message) unsplit and split
    four ways, the same solved dof count and the same audit findings in the
    same order as the per-kind branches."""
    for n_sub in (1, 4):
        assert _system(_table_assemble, model, n_sub) == _system(reference.assemble, model, n_sub)
    assert solver.solved_dofs(model) == reference.solved_dofs(model)
    assert check_l1(model) == reference.check_l1(model)


def test_the_lower_id_of_both_faults_is_raised():
    messages = [_system(_table_assemble, m, 4) for m in _BOTH_FAULTS]
    assert messages == ["element 1 has zero length"] * 2 + [
        "frame element 1 has no moment of inertia"] * 2


def test_an_unknown_kind_is_audited_as_before():
    # no inertia rule applies to it, and no mode accepts it
    model = IRModel(nodes=(Node(1, 0.0, 0.0), Node(2, 1.0, 0.0)),
                    elements=(Element(1, "shell", (1, 2), 2),), materials=(STEEL,),
                    sections=_SECTIONS, loads=(Load(2, 1.0),),
                    boundary_conditions=(BoundaryCondition(1, frozenset({"ux"})),))
    findings = check_l1(model)
    assert findings == reference.check_l1(model)
    assert [f.code for f in findings] == ["mode-elements"]


def _one_element(kind: str) -> IRModel:
    return IRModel(nodes=(Node(1, 0.0, 0.0), Node(2, 1.0, 0.0)),
                   elements=(Element(1, kind, (1, 2), 1),), materials=(STEEL,),
                   sections=_SECTIONS[:1],
                   boundary_conditions=(BoundaryCondition(1, frozenset({"ux", "uy"})),),
                   loads=(Load(2, 1.0),))


@pytest.mark.parametrize("kind", list(KINDS))
def test_script_word_round_trips(kind):
    script = lower_ir(_one_element(kind))
    assert f"element 1 {KINDS[kind].word} 1 2 1\n" in script
    assert KINDS[kind].word == reference.KIND_TO_SCRIPT[kind]
    elements = [e for stmt in parse_script(script).statements if isinstance(stmt, Declare)
                for e in stmt.entities if isinstance(e, Element)]
    assert [e.kind for e in elements] == [kind]


@pytest.mark.parametrize("kind, word", [(kind, w) for kind, row in KINDS.items()
                                        for w in row.directives])
def test_context_words_select_the_kind(kind, word):
    for text in (word, word.upper(), word.capitalize()):
        assert parse_context(f"elements: {text}").element_kind == kind
    assert reference.ELEMENT_DIRECTIVES[word] == kind


def test_context_words_are_the_reference_words():
    assert {w: kind for kind, row in KINDS.items() for w in row.directives} \
        == reference.ELEMENT_DIRECTIVES


def test_unknown_words_are_refused_as_before():
    with pytest.raises(ScriptParseError) as err:
        parse_script("model begin\nelement 1 beam 1 2 1\nend\n")
    error = err.value
    assert (error.line, error.token, error.reason) == (2, "beam", "unknown element kind")
    with pytest.raises(PerceptionError, match="^unknown element kind directive 'Beam'$") as err:
        parse_context("elements: Beam")
    assert err.value.kind == "semantics"


class TestElementKindTable:
    def test_rows(self):
        assert ELEMENT_KINDS == tuple(KINDS) == tuple(solver.FORMULATIONS)
        for kind, row in KINDS.items():
            assert row.dofs == reference.DOF_NAMES[kind] == DOF_ORDER[:len(row.dofs)]
            assert kind in row.directives and row.word in row.directives

    def test_documented_kinds_are_the_rows(self):
        # the element-kind table of docs/ir-schema.md: kind, script word,
        # context words, node dofs, inertia and modal split of every kind
        doc = (DOCS / "ir-schema.md").read_text(encoding="utf-8")
        table = doc.split("| kind | script word |", 1)[1].split("\n\n", 1)[0]
        rows = [[cell.strip() for cell in line.strip("|").split("|")]
                for line in table.strip().splitlines()[2:]]

        def words(values):
            return ", ".join(f"`{v}`" for v in values)
        assert rows == [[f"`{kind}`", f"`{row.word}`", words(row.directives), words(row.dofs),
                         "yes" if row.needs_inertia else "no", "yes" if row.split else "no"]
                        for kind, row in KINDS.items()]
