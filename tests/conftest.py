"""Shared fixtures: golden models, a random-model generator, suite paths."""

from __future__ import annotations

import itertools
import random
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "scripts"))

from vfea import solver
from vfea.ir import (AnalysisSpec, BoundaryCondition, Element, IRModel, Load,
                     Material, Node, Section, canonicalize)

STEEL = Material(id=1, youngs_modulus=210e9, poisson_ratio=0.3, density=7850.0)
BAR = Section(id=1, material_id=1, area=1e-2)
BEAM = Section(id=1, material_id=1, area=1e-2, moment_of_inertia=1e-6)

SUITE_DIR = REPO_ROOT / "cases"


def cantilever_model(load: float = -1000.0, length: float = 2.0) -> IRModel:
    return canonicalize(IRModel(
        nodes=(Node(1, 0.0, 0.0), Node(2, length, 0.0)),
        elements=(Element(1, "frame_beam", (1, 2), 1),),
        materials=(STEEL,),
        sections=(BEAM,),
        boundary_conditions=(BoundaryCondition(1, frozenset({"ux", "uy", "rz"})),),
        loads=(Load(2, 0.0, load, 0.0),),
    ))


def two_bar_truss(load: float = -10_000.0) -> IRModel:
    return canonicalize(IRModel(
        nodes=(Node(1, 0.0, 0.0), Node(2, 2.0, 0.0), Node(3, 1.0, 1.0)),
        elements=(Element(1, "truss_bar", (1, 3), 1), Element(2, "truss_bar", (2, 3), 1)),
        materials=(STEEL,),
        sections=(BAR,),
        boundary_conditions=(BoundaryCondition(1, frozenset({"ux", "uy"})),
                             BoundaryCondition(2, frozenset({"ux", "uy"})),),
        loads=(Load(3, 0.0, load, 0.0),),
    ))


def ground_structure(volfrac: float = 0.5, iters: int = 40) -> IRModel:
    coords = sorted((float(x), float(y)) for x in (0, 1, 2) for y in (0, 1, 2))
    nodes = tuple(Node(i + 1, x, y) for i, (x, y) in enumerate(coords))
    by_pos = {(n.x, n.y): n.id for n in nodes}
    elems = tuple(Element(i + 1, "truss_bar", pair, 1)
                  for i, pair in enumerate(itertools.combinations(range(1, 10), 2)))
    return canonicalize(IRModel(
        nodes=nodes, elements=elems, materials=(STEEL,), sections=(BAR,),
        boundary_conditions=(BoundaryCondition(by_pos[(0.0, 0.0)], frozenset({"ux", "uy"})),
                             BoundaryCondition(by_pos[(2.0, 0.0)], frozenset({"ux", "uy"})),),
        loads=(Load(by_pos[(1.0, 2.0)], 0.0, -1e4, 0.0),),
        analysis=AnalysisSpec(mode="topology_optimization", opt_volume_fraction=volfrac,
                              opt_max_iterations=iters),
    ))


def modal_cantilever(count: int = 3) -> IRModel:
    base = cantilever_model()
    return canonicalize(IRModel(
        nodes=base.nodes, elements=base.elements, materials=base.materials,
        sections=base.sections, boundary_conditions=base.boundary_conditions,
        loads=(), analysis=AnalysisSpec(mode="modal", modal_count=count),
    ))


def random_frame_model(rng: random.Random, min_nodes: int = 2, max_nodes: int = 6) -> IRModel:
    """Audit-clean random frame: spanning tree over distinct grid points,
    one fixed support, loads at one or two nodes. Frames resist all relative
    motion, so rank-3 restraint makes every instance solvable."""
    n = rng.randint(min_nodes, max_nodes)
    points: set[tuple[float, float]] = set()
    while len(points) < n:
        points.add((rng.randint(0, 8) * 0.5, rng.randint(0, 8) * 0.5))
    nodes = tuple(Node(i + 1, x, y) for i, (x, y) in enumerate(sorted(points)))
    elements = []
    for i in range(2, n + 1):
        elements.append(Element(i - 1, "frame_beam", (rng.randint(1, i - 1), i), 1))
    fixed = rng.randint(1, n)
    loaded = rng.sample(range(1, n + 1), rng.randint(1, min(2, n)))
    loads = tuple(Load(nid, rng.choice([-1, 1]) * rng.randint(1, 9) * 100.0,
                       rng.choice([-1, 1]) * rng.randint(1, 9) * 100.0, 0.0)
                  for nid in loaded)
    return canonicalize(IRModel(
        nodes=nodes, elements=tuple(elements), materials=(STEEL,), sections=(BEAM,),
        boundary_conditions=(BoundaryCondition(fixed, frozenset({"ux", "uy", "rz"})),),
        loads=loads,
    ))


@pytest.fixture()
def cantilever() -> IRModel:
    return cantilever_model()


@pytest.fixture()
def truss() -> IRModel:
    return two_bar_truss()


@pytest.fixture()
def topopt_model() -> IRModel:
    return ground_structure()


@pytest.fixture()
def modal_split(monkeypatch):
    """Set the split count of the modal row of ``solver.ANALYSES`` for one test."""
    def split(n_sub: int) -> None:
        monkeypatch.setitem(solver.ANALYSES, "modal",
                            solver.ANALYSES["modal"]._replace(subdivisions=n_sub))
    return split


@pytest.fixture(scope="session")
def suite_dir() -> Path:
    assert SUITE_DIR.exists(), "bundled case suite missing; run scripts/make_suite.py"
    return SUITE_DIR
