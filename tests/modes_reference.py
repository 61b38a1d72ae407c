"""Reference copies of the per-mode branches that the analysis tables
replaced: the parameter directives of ``perception.parse_context`` and the
spec chain built from them (``analysis_spec``), ``validation.check_l1``
with its mode-params, density and load rules, the two budget checks of
``sandbox._interpret``, ``solver.solved_dofs``, the topology parameters
with their priors, and the three ``analyze`` printers of ``simscript``. The mode property in
test_modes.py checks the tables against them.
"""

from __future__ import annotations

import math

from element_kinds_reference import _rz_nodes
from vfea.ir import ANALYSIS_MODES, AnalysisSpec, IRModel, Material, Section, _ID, bounding_box
from vfea.perception import (DEFAULT_MATERIAL, DEFAULT_SECTION, ContextDirectives,
                             PerceptionError)
from vfea.sandbox import MAX_MODES, MAX_OC_ITERATIONS
from vfea.solver import ANALYSES
from vfea.validation import Finding

DEFAULT_VOLFRAC = 0.5
DEFAULT_OPT_ITERS = 50


def topology_params(analysis: AnalysisSpec) -> tuple[float, int]:
    volfrac, iters = analysis.opt_volume_fraction, analysis.opt_max_iterations
    return (DEFAULT_VOLFRAC if volfrac is None else volfrac,
            DEFAULT_OPT_ITERS if iters is None else iters)


def parse_context(text: str) -> ContextDirectives:
    material = DEFAULT_MATERIAL
    section = DEFAULT_SECTION
    element_kind = "frame_beam"
    mode = "static"
    modal_count = None
    volfrac = None
    opt_iterations = None
    kept: list[str] = []
    for raw in text.replace("\r\n", "\n").replace("\r", "\n").split("\n"):
        line = raw.split("#", 1)[0].strip()
        if not line or ":" not in line:
            continue
        kept.append(line)
        key, value = (part.strip() for part in line.split(":", 1))
        key = key.lower()
        try:
            if key == "material":
                props = {k.lower(): v for k, v in
                         (tok.split("=", 1) for tok in value.split())}
                material = Material(id=1,
                                    youngs_modulus=float(props.get("e", 210e9)),
                                    poisson_ratio=float(props.get("nu", 0.3)),
                                    density=float(props.get("rho", 7850.0)))
            elif key == "section":
                props = {k.lower(): v for k, v in
                         (tok.split("=", 1) for tok in value.split())}
                inertia = float(props["i"]) if "i" in props else DEFAULT_SECTION.moment_of_inertia
                section = Section(id=1, material_id=1,
                                  area=float(props.get("a", DEFAULT_SECTION.area)),
                                  moment_of_inertia=inertia)
            elif key == "elements":
                v = value.lower()
                if v in ("truss", "truss_bar"):
                    element_kind = "truss_bar"
                elif v in ("frame", "frame_beam"):
                    element_kind = "frame_beam"
                else:
                    raise PerceptionError("semantics", f"unknown element kind directive {value!r}")
            elif key == "mode":
                if value not in ANALYSIS_MODES:
                    raise PerceptionError("semantics", f"unknown analysis mode {value!r}")
                mode = value
            elif key == "modal_count":
                modal_count = int(value)
            elif key == "volfrac":
                volfrac = float(value)
            elif key == "opt_iterations":
                opt_iterations = int(value)
        except (ValueError, KeyError) as exc:
            raise PerceptionError("semantics",
                                  f"malformed context directive {line!r}: {exc}") from None
    return ContextDirectives(material=material, section=section, element_kind=element_kind,
                             analysis=analysis_spec(mode, modal_count, volfrac, opt_iterations),
                             lines=tuple(kept))


def analysis_spec(mode: str, modal_count: int | None, volfrac: float | None,
                  opt_iterations: int | None) -> AnalysisSpec:
    """The spec chain of ``attach_semantics``."""
    if mode == "modal":
        count = 1 if modal_count is None else modal_count
        analysis = AnalysisSpec(mode="modal", modal_count=count)
    elif mode == "topology_optimization":
        analysis = AnalysisSpec(mode="topology_optimization",
                                opt_volume_fraction=volfrac,
                                opt_max_iterations=opt_iterations)
    else:
        analysis = AnalysisSpec(mode="static")
    return analysis


def check_l1(model: IRModel) -> list[Finding]:
    out: list[Finding] = []

    def f(code: str, message: str, subject: str | None = None):
        out.append(Finding("L1", code, message, subject))

    required_nonempty = [("nodes", model.nodes), ("elements", model.elements),
                         ("materials", model.materials), ("sections", model.sections),
                         ("bcs", model.boundary_conditions)]
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


def budget_stop(spec: AnalysisSpec, n_dofs: int) -> str | None:
    """The abort message of the mode and iteration budgets of
    ``sandbox._interpret`` for an L1-clean spec, or None."""
    modes = min(spec.modal_count, n_dofs) if spec.mode == "modal" else 0
    if modes > MAX_MODES:
        return f"mode budget exceeded ({modes} > {MAX_MODES} modes)"
    iters = spec.opt_max_iterations
    if spec.mode == "topology_optimization" and iters > MAX_OC_ITERATIONS:
        return f"iteration budget exceeded ({iters} > {MAX_OC_ITERATIONS} iterations)"
    return None


def solved_dofs(model: IRModel) -> int:
    node_ids = set(map(_ID, model.nodes))
    n = 2 * len(node_ids) + len(node_ids & _rz_nodes(model))
    if model.analysis.mode == "modal":
        frames = sum(e.kind != "truss_bar" for e in model.elements)
        n += 3 * (ANALYSES["modal"].subdivisions - 1) * frames
    return n


# the ``analyze`` printers of the statement table, by mode
ANALYZE_TEXT = {
    "static": lambda _: "analyze static",
    "modal": lambda a: f"analyze modal count {a.modal_count:d}",
    "topology_optimization":
        lambda a: "analyze topopt volfrac {!r} iters {}".format(*topology_params(a)),
}
