"""Reference copies of the code that ``ir.COLLECTIONS`` replaced: the audit
``validation.check_l1`` and ``ir.canonicalize``, each with its own copy of
the dangling-reference rule, and the interpreter's ``sandbox._ModelBuilder``
with its own bc and load merging. The properties in test_collections.py
check the table-driven code against them.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import replace

from vfea.ir import (MODES, AnalysisSpec, BoundaryCondition, CanonicalizationError, Element,
                     IRModel, Load, Material, Node, Section, _ascending, _by_key, bounding_box)
from vfea.simscript import Entity
from vfea.validation import Finding

_ID = operator.attrgetter("id")
_NODE_ID = operator.attrgetter("node_id")
_KIND = operator.attrgetter("kind")


def check_l1(model: IRModel) -> list[Finding]:
    """Schema-integrity findings: empty arrays, duplicate keys, dangling refs,
    non-finite values, analysis parameters and element kinds the mode rejects."""
    out: list[Finding] = []

    def f(code: str, message: str, subject: str | None = None):
        out.append(Finding("L1", code, message, subject))

    spec = model.analysis
    row = MODES[spec.mode]
    required_nonempty = [("nodes", model.nodes), ("elements", model.elements),
                         ("materials", model.materials), ("sections", model.sections),
                         ("bcs", model.boundary_conditions)]
    # a mode driven by mass alone (modal analysis) may have no loads
    if not row.needs_mass:
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


class ModelBuilder:
    """The interpreter's model under construction, declarations only."""

    def __init__(self):
        self.nodes: dict[int, Node] = {}
        self.materials: dict[int, Material] = {}
        self.sections: dict[int, Section] = {}
        self.elements: dict[int, Element] = {}
        self.bcs: dict[int, BoundaryCondition] = {}
        self.loads: dict[int, Load] = {}
        self._by_id = {Node: self.nodes, Material: self.materials, Section: self.sections,
                       Element: self.elements}

    def declare(self, entities: Sequence[Entity]):
        """Store the entities of one declaration run, all of one class, in
        order: each under its id, except that a fix adds its dofs to those
        already fixed at the node and a load adds to the node's load."""
        kind = type(entities[0])
        if kind is BoundaryCondition:
            for entity in entities:
                prev = self.bcs.get(entity.node_id)
                dofs = entity.constrained_dofs | (prev.constrained_dofs if prev else frozenset())
                self.bcs[entity.node_id] = BoundaryCondition(entity.node_id, dofs)
        elif kind is Load:
            for entity in entities:
                prev = self.loads.get(entity.node_id) or Load(entity.node_id)
                self.loads[entity.node_id] = Load(entity.node_id, entity.fx + prev.fx,
                                                  entity.fy + prev.fy, entity.mz + prev.mz)
        else:
            self._by_id[kind].update(zip(map(_ID, entities), entities))

    def to_ir(self, analysis: AnalysisSpec) -> IRModel:
        return IRModel(
            nodes=tuple(sorted(self.nodes.values(), key=_ID)),
            elements=tuple(sorted(self.elements.values(), key=_ID)),
            materials=tuple(sorted(self.materials.values(), key=_ID)),
            sections=tuple(sorted(self.sections.values(), key=_ID)),
            boundary_conditions=tuple(sorted(self.bcs.values(), key=_NODE_ID)),
            loads=tuple(sorted(self.loads.values(), key=_NODE_ID)),
            analysis=analysis,
        )
