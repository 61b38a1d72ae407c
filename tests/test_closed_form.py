"""Closed-form answers through the whole pipeline: drawings built from metric
geometry pass perception, synthesis and the sandboxed solver, and the
reported highlights equal answers that the solver did not compute."""

from __future__ import annotations

import math
import random
import sys

import pytest

from conftest import REPO_ROOT
from vfea.harness import RunConfig, load_case, run_case
from vfea.ir import KINDS

sys.path.insert(0, str(REPO_ROOT / "perfbench"))
import workloads  # noqa: E402

# Steel members of section A and I under a load P: the material line of the
# workloads, E = 210 GPa
P, E, A, I = 10e3, 210e9, 0.01, 1e-4
# A beam of span L, under P at midspan. The glyph of the far support, with
# the near end fixed, and the midspan deflection of Euler-Bernoulli theory,
# as Roark's Formulas for Stress and Strain tabulates it: fixed-fixed and
# propped cantilever. Cubic frame elements are exact at the nodes under
# nodal loads.
L = 6.0
BEAMS = {"fixed": P * L**3 / (192 * E * I), "roller_y": 7 * P * L**3 / (768 * E * I)}
# The context's section keys, and the IR's
SECTION_KEYS = {"A": "area", "I": "moment_of_inertia"}


def drawn_highlights(tmp_path, nodes: dict, members: list, supports: dict, loads: list,
                     dims: list, kind: str, section: dict, seed: int) -> dict[str, float]:
    """The highlights ``run_case`` reports for a static model of one element
    kind, drawn with the default jitter of seed ``seed``; the case must
    verify and score 1."""
    drawing = workloads._drawing(nodes, members, supports, loads, dims, random.Random(seed))
    context = "\n".join([workloads.STEEL_LINE,
                         "section: " + " ".join(f"{k}={v}" for k, v in section.items()),
                         f"elements: {KINDS[kind].word}", "mode: static"]) + "\n"
    truth = workloads._truth(nodes, members, kind,
                             {SECTION_KEYS[k]: v for k, v in section.items()},
                             supports, loads, {"mode": "static"})
    case = load_case(workloads.write_case(tmp_path / "cases", "drawn", drawing, context, truth,
                                          "static"))
    report = run_case(case, RunConfig(workspace_root=tmp_path / "ws"))
    assert report.error is None and report.metrics.overall == 1.0
    return report.highlights


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("far", sorted(BEAMS))
def test_a_beam_drawn_as_two_members_deflects_as_in_closed_form(tmp_path, far, seed):
    highlights = drawn_highlights(tmp_path, {1: (0.0, 0.0), 2: (L / 2, 0.0), 3: (L, 0.0)},
                                  [(1, 2), (2, 3)], {1: "fixed", 3: far}, [(2, P / 1e3)],
                                  [(1, 3)], "frame_beam", {"A": A, "I": I}, seed)
    assert highlights["max_displacement_m"] == pytest.approx(BEAMS[far], rel=1e-9)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("half_span, height", [(1.0, 1.0), (2.0, 1.5), (3.0, 0.8)])
def test_a_two_bar_truss_deflects_and_is_stressed_as_in_closed_form(tmp_path, half_span,
                                                                     height, seed):
    # Both feet pinned, P down at the apex. By the method of joints each bar,
    # of length Lb at sin(theta) = height / Lb to the horizontal, carries
    # P / (2 sin(theta)) in compression; by virtual work the apex sinks
    # P Lb / (2 E A sin^2(theta)). The stress does not depend on E, so the
    # deflection is what catches a wrong stiffness.
    bar = math.hypot(half_span, height)
    sin = height / bar
    highlights = drawn_highlights(tmp_path, {1: (0.0, 0.0), 2: (2 * half_span, 0.0),
                                             3: (half_span, height)},
                                  [(1, 3), (2, 3)], {1: "pin", 2: "pin"}, [(3, P / 1e3)],
                                  [(1, 2)], "truss_bar", {"A": A}, seed)
    assert highlights["max_displacement_m"] == pytest.approx(P * bar / (2 * E * A * sin**2),
                                                             rel=1e-9)
    assert highlights["max_abs_axial_stress_pa"] == pytest.approx(P / (2 * A * sin), rel=1e-9)
