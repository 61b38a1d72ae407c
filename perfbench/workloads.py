"""Seeded input generators for the benchmark workloads.

Every generated case is written as the files the program reads (drawing,
context, reference IR, manifest). The reference IR is built from the
generator's own metric geometry, never by running perception, so the
harness's perception score is not a self-comparison.

Endpoint jitter is sub-pixel and has zero mean over the endpoints of each
node: single-linkage clustering still has to snap distinct endpoints, but
the centroid it places lands on the generator's node up to rounding, which
keeps the solver highlights comparable with the independent reference at a
tight tolerance.
"""

from __future__ import annotations

import json
import math
import random
import re
from pathlib import Path

PX_PER_M = 100.0
JITTER_PX = 0.25     # per axis, before centring; well inside the 3 px snap tolerance
DIM_OFFSET_PX = 40.0
STEEL = {"id": 1, "youngs_modulus": 210e9, "poisson_ratio": 0.3, "density": 7850.0}
STEEL_LINE = "material: E=210e9 nu=0.3 rho=7850"

# (bays, panels) of the generated truss grids: 231, 496 and 861 nodes, the
# last at 1722 dofs, under the default 3000-dof solver budget. Three of the
# five are the 496-node size, so the median latency rests on many samples of
# one size rather than on the few of whichever size lands in the middle.
GRID_DECK = ((20, 10), (30, 15), (30, 15), (30, 15), (40, 20))
# (bays, storeys) of the generated frames; 14 x 7 refines to 2187 dofs at the
# default four subdivisions, every frame stays under 3000 refined dofs.
FRAME_DECK = ((10, 5), (12, 6), (14, 7))
FRAME_SECTION = {"A": 0.01, "I": 1e-4}
WARMUP_SIZE = (4, 2)
MODAL_COUNT = 3

REPAIR_ROTATION = ("faulty:type_i", "faulty:type_ii", "faulty:type_iii",
                   "faulty:type_iii:stubborn")
BUFFER_RECORDS = 5000


def _rng(seed: int, *parts) -> random.Random:
    return random.Random(":".join(str(p) for p in (seed, *parts)))


def _drawing(nodes_m: dict[int, tuple[float, float]], members: list[tuple[int, int]],
             supports: dict[int, str], loads: list[tuple[int, float]],
             dims: list[tuple[int, int]], rng: random.Random) -> dict:
    """Drawing document from metric geometry: jittered structural segments,
    exact dimension lines (so the scale is exact), glyphs on the nodes."""
    px = {nid: (x * PX_PER_M, y * PX_PER_M) for nid, (x, y) in nodes_m.items()}
    ends: dict[int, list[tuple[int, int]]] = {}
    for i, (a, b) in enumerate(members):
        ends.setdefault(a, []).append((i, 0))
        ends.setdefault(b, []).append((i, 1))
    points = [[None, None] for _ in members]
    for nid, slots in ends.items():
        jit = [(rng.uniform(-JITTER_PX, JITTER_PX), rng.uniform(-JITTER_PX, JITTER_PX))
               for _ in slots]
        mx = sum(j[0] for j in jit) / len(jit)
        my = sum(j[1] for j in jit) / len(jit)
        for (seg, end), (jx, jy) in zip(slots, jit):
            points[seg][end] = [px[nid][0] + jx - mx, px[nid][1] + jy - my]
    segments = [{"p1": p1, "p2": p2, "class": "structural"} for p1, p2 in points]
    annotations = []
    for a, b in dims:
        (x1, y1), (x2, y2) = px[a], px[b]
        length = math.hypot(x2 - x1, y2 - y1)
        nx, ny = (y2 - y1) / length, -(x2 - x1) / length
        annotations.append({"segment": len(segments),
                            "value_m": math.dist(nodes_m[a], nodes_m[b])})
        segments.append({"p1": [x1 + nx * DIM_OFFSET_PX, y1 + ny * DIM_OFFSET_PX],
                         "p2": [x2 + nx * DIM_OFFSET_PX, y2 + ny * DIM_OFFSET_PX],
                         "class": "dimension"})
    return {
        "segments": segments,
        "labels": [],
        "support_glyphs": [{"anchor": list(px[n]), "kind": k} for n, k in sorted(supports.items())],
        "load_arrows": [{"anchor": list(px[n]), "direction": [0.0, -1.0],
                         "magnitude": f"{kn:.1f} kN"} for n, kn in loads],
        "dimension_annotations": annotations,
    }


_GLYPH_DOFS = {"pin": ["ux", "uy"], "roller_y": ["uy"], "fixed": ["ux", "uy", "rz"]}


def _truth(nodes_m, members, kind, section, supports, loads, analysis) -> dict:
    return {
        "nodes": [{"id": n, "x": x, "y": y} for n, (x, y) in sorted(nodes_m.items())],
        "elements": [{"id": i, "kind": kind, "nodes": sorted(m), "section": 1}
                     for i, m in enumerate(members, start=1)],
        "materials": [STEEL],
        "sections": [{"id": 1, "material": 1, **section}],
        "bcs": [{"node": n, "dofs": _GLYPH_DOFS[k]} for n, k in sorted(supports.items())],
        "loads": [{"node": n, "fx": 0.0, "fy": -float(f"{kn:.1f}") * 1e3, "mz": 0.0}
                  for n, kn in sorted(loads)],
        "analysis": analysis,
        "coordinate_mode": "metric",
        "provenance": "generated metric geometry",
    }


def truss_grid(bays: int, panels: int, rng: random.Random) -> tuple[dict, str, dict]:
    """Triangulated truss grid, pinned and roller-supported at the bottom
    corners, with downward loads on a seeded subset of top-chord nodes."""
    w, h = rng.uniform(1.0, 1.5), rng.uniform(1.0, 1.5)
    nid = {(i, j): 1 + i * (panels + 1) + j for i in range(bays + 1) for j in range(panels + 1)}
    nodes_m = {n: (i * w, j * h) for (i, j), n in nid.items()}
    members = []
    for i in range(bays + 1):
        for j in range(panels + 1):
            if i < bays:
                members.append((nid[i, j], nid[i + 1, j]))
            if j < panels:
                members.append((nid[i, j], nid[i, j + 1]))
            if i < bays and j < panels:
                if rng.random() < 0.5:
                    members.append((nid[i, j], nid[i + 1, j + 1]))
                else:
                    members.append((nid[i + 1, j], nid[i, j + 1]))
    supports = {nid[0, 0]: "pin", nid[bays, 0]: "roller_y"}
    top = sorted(rng.sample(range(bays + 1), min(5, bays + 1)))
    loads = [(nid[i, panels], rng.randint(10, 200) / 10) for i in top]
    dims = [(nid[0, 0], nid[1, 0]), (nid[0, 0], nid[0, 1]), (nid[0, 0], nid[bays, 0])]
    drawing = _drawing(nodes_m, members, supports, loads, dims, rng)
    context = "\n".join([STEEL_LINE, "section: A=0.01", "elements: truss", "mode: static"]) + "\n"
    truth = _truth(nodes_m, members, "truss_bar", {"area": 0.01}, supports, loads,
                   {"mode": "static"})
    return drawing, context, truth


def frame(bays: int, storeys: int, rng: random.Random) -> tuple[dict, str, dict]:
    """Multi-bay, multi-storey moment frame fixed at every column base, for
    modal analysis; bay widths and storey heights are seeded."""
    xs = [0.0]
    for _ in range(bays):
        xs.append(xs[-1] + rng.uniform(3.0, 5.0))
    ys = [0.0]
    for _ in range(storeys):
        ys.append(ys[-1] + rng.uniform(2.8, 3.6))
    nid = {(i, j): 1 + i * (storeys + 1) + j for i in range(bays + 1) for j in range(storeys + 1)}
    nodes_m = {n: (xs[i], ys[j]) for (i, j), n in nid.items()}
    members = [(nid[i, j], nid[i, j + 1]) for i in range(bays + 1) for j in range(storeys)]
    members += [(nid[i, j], nid[i + 1, j]) for j in range(1, storeys + 1) for i in range(bays)]
    supports = {nid[i, 0]: "fixed" for i in range(bays + 1)}
    dims = [(nid[0, 0], nid[1, 0]), (nid[0, 0], nid[0, 1])]
    drawing = _drawing(nodes_m, members, supports, [], dims, rng)
    context = "\n".join([STEEL_LINE, f"section: A={FRAME_SECTION['A']} I={FRAME_SECTION['I']}",
                         "elements: frame", "mode: modal", f"modal_count: {MODAL_COUNT}"]) + "\n"
    truth = _truth(nodes_m, members, "frame_beam",
                   {"area": FRAME_SECTION["A"], "moment_of_inertia": FRAME_SECTION["I"]},
                   supports, [], {"mode": "modal", "modal_count": MODAL_COUNT})
    return drawing, context, truth


def write_case(root: Path, case_id: str, drawing: dict, context: str, truth: dict,
               expected_mode: str) -> Path:
    case_dir = root / case_id
    case_dir.mkdir(parents=True)
    (case_dir / "drawing.json").write_text(json.dumps(drawing), encoding="utf-8")
    (case_dir / "context.txt").write_text(context, encoding="utf-8")
    (case_dir / "truth.ir.json").write_text(json.dumps(truth), encoding="utf-8")
    (case_dir / "case.json").write_text(json.dumps({
        "id": case_id, "drawing": "drawing.json", "context": "context.txt",
        "truth_ir": "truth.ir.json", "expected_mode": expected_mode}), encoding="utf-8")
    return case_dir


def write_deck(root: Path, workload: str, seed: int, warmup: bool = False) -> list[tuple[Path, dict]]:
    """Write the generated cases of one workload; returns (case dir, truth doc)
    pairs. ``warmup`` writes a single small model of the same kind instead."""
    make, sizes, mode = {"grid_static": (truss_grid, GRID_DECK, "static"),
                         "frame_modal": (frame, FRAME_DECK, "modal")}[workload]
    if warmup:
        sizes = (WARMUP_SIZE,)
    out = []
    for k, (a, b) in enumerate(sizes):
        drawing, context, truth = make(a, b, _rng(seed, workload, k, warmup))
        case_id = f"{workload.split('_')[0]}{k}_{a}x{b}"
        out.append((write_case(root, case_id, drawing, context, truth, mode), truth))
    return out


# Failure messages the program emits, by category, for realistic token sets.
_ERRORS = {
    "type_i_lifecycle": ("no execution trigger: analyze statement absent",
                         "no results persistence: write_results statement absent",
                         "no termination signal: end statement absent"),
    "type_ii_hallucination": ("line {line}: unknown statement 'mesh_edges'",
                              "line {line}: unknown statement 'refine_mesh'"),
    "type_iii_unsafe_state": ("kernel protection: deletion of protected root container",),
    "other": ("rigid body motion or mechanism", "artifact path escapes workspace: ../out"),
}
_LESSONS = ("every script must contain an analyze execution trigger, a write_results "
            "statement and an end termination signal",
            "use only statements documented for the simulation language; unknown "
            "statements fail to parse",
            "never delete the protected root model container",
            "ensure the model is fully restrained and well posed before analysis",
            "write all artifacts to paths inside the allocated task workspace")


def prefill_buffer(path: Path, seed: int) -> None:
    """Write BUFFER_RECORDS replay-buffer records in the documented line format
    (docs/memory-format.md): a seeded mix of failure and success records over
    a spread of structure sizes, so the density filter keeps part of them."""
    rng = _rng(seed, "buffer")
    lines = []
    for i in range(BUFFER_RECORDS):
        n_nodes = rng.randint(2, 40)
        n_elements = max(1, round(n_nodes * rng.uniform(0.6, 3.0)))
        kind = rng.choice((["truss_bar"], ["frame_beam"]))
        sig = {"n_nodes": n_nodes, "n_elements": n_elements, "section_kinds": kind,
               "n_loads": rng.randint(0, 4), "n_bcs": rng.randint(1, 4)}
        if rng.random() < 0.7:
            category = rng.choice(sorted(_ERRORS))
            message = rng.choice(_ERRORS[category]).format(line=rng.randint(2, 30))
            line = re.search(r"line (\d+)", message)
            error = {"category": category, "line": int(line.group(1)) if line else None,
                     "tokens": sorted(set(re.findall(r"[a-z][a-z0-9_]*", message.lower())))}
            rec = {"signature": sig, "error": error, "lesson": rng.choice(_LESSONS),
                   "script_excerpt": "model begin\n", "outcome": "failure"}
        else:
            rec = {"signature": sig, "error": None,
                   "lesson": "verified static script for this structure family",
                   "script_excerpt": "model begin\nanalyze static\nend\n", "outcome": "success"}
        rec["created_at"] = 1.7e9 + i
        lines.append(json.dumps(rec, separators=(",", ":")))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
