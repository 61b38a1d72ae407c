"""Closed-form answers through the whole pipeline: drawings built from metric
geometry pass perception, synthesis and the sandboxed solver, and the
reported highlights equal answers that the solver did not compute."""

from __future__ import annotations

import random
import sys

import pytest

from conftest import REPO_ROOT
from vfea.harness import RunConfig, load_case, run_case

sys.path.insert(0, str(REPO_ROOT / "perfbench"))
import workloads  # noqa: E402

# Steel beam of span L, section A and I, under P at midspan
P, L, E, A, I = 10e3, 6.0, 210e9, 0.01, 1e-4
# The glyph of the far support, with the near end fixed, and the midspan
# deflection of Euler-Bernoulli theory, as Roark's Formulas for Stress and
# Strain tabulates it: fixed-fixed and propped cantilever. Cubic frame
# elements are exact at the nodes under nodal loads.
BEAMS = {"fixed": P * L**3 / (192 * E * I), "roller_y": 7 * P * L**3 / (768 * E * I)}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("far", sorted(BEAMS))
def test_a_beam_drawn_as_two_members_deflects_as_in_closed_form(tmp_path, far, seed):
    nodes = {1: (0.0, 0.0), 2: (L / 2, 0.0), 3: (L, 0.0)}
    members, supports, loads = [(1, 2), (2, 3)], {1: "fixed", 3: far}, [(2, P / 1e3)]
    drawing = workloads._drawing(nodes, members, supports, loads, [(1, 3)],
                                 random.Random(seed))
    context = "\n".join([workloads.STEEL_LINE, f"section: A={A} I={I}", "elements: frame",
                         "mode: static"]) + "\n"
    truth = workloads._truth(nodes, members, "frame_beam", {"area": A, "moment_of_inertia": I},
                             supports, loads, {"mode": "static"})
    case = load_case(workloads.write_case(tmp_path / "cases", f"beam_{far}", drawing, context,
                                          truth, "static"))
    report = run_case(case, RunConfig(workspace_root=tmp_path / "ws"))
    assert report.error is None and report.metrics.overall == 1.0
    assert report.highlights["max_displacement_m"] == pytest.approx(BEAMS[far], rel=1e-9)
