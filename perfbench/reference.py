"""Independent reference answers for the benchmark's correctness gate.

The solver here shares no code with ``vfea``: it reads the IR document as
plain JSON, assembles sparse matrices with numpy and solves with
scipy.sparse, so a solver highlight checked against it is not compared with
itself. Closed-form answers cover three bundled cases; the committed
``suite_reference.json`` holds the highlights of every bundled case.

Regenerate the committed file with ``python3 perfbench/reference.py``.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

HERE = Path(__file__).resolve().parent
SUITE_REFERENCE = HERE / "suite_reference.json"

# Relative tolerance of a solver highlight against its reference. Direct
# solves agree far closer; the slack covers factorisation order and the
# iterative optimality-criteria loop.
REL_TOL = 1e-6
# Four cubic elements per member leave this much discretisation error on the
# first cantilever frequency against Euler-Bernoulli theory.
MODAL_CLOSED_FORM_REL_TOL = 1e-4
MODAL_SUBDIVISIONS = 4          # the harness default
CANTILEVER_ROOT = 1.8751040687119611  # first root of cos(b)cosh(b) = -1


def closed_form() -> dict[str, dict[str, tuple[float, float]]]:
    """Highlight -> (value, relative tolerance) from textbook formulas for the
    bundled cases whose inputs are documented in scripts/make_suite.py."""
    E, I, A, rho = 210e9, 1e-6, 0.01, 7850.0
    P, L = 1e3, 2.0
    tip = P * L**3 / (3 * E * I)
    bar_force = 10e3 / (2 * math.sin(math.radians(45)))
    f1 = CANTILEVER_ROOT**2 / (2 * math.pi) * math.sqrt(E * I / (rho * A * L**4))
    return {
        "frame_cantilever": {"max_displacement_m": (tip, REL_TOL)},
        "truss_two_bar": {"max_abs_axial_stress_pa": (bar_force / A, REL_TOL)},
        "frame_modal": {"first_frequency_hz": (f1, MODAL_CLOSED_FORM_REL_TOL)},
    }


def _frame_local(E, A, I, L):
    ax, b = E * A / L, E * I / L**3
    return np.array([
        [ax, 0, 0, -ax, 0, 0],
        [0, 12 * b, 6 * b * L, 0, -12 * b, 6 * b * L],
        [0, 6 * b * L, 4 * b * L**2, 0, -6 * b * L, 2 * b * L**2],
        [-ax, 0, 0, ax, 0, 0],
        [0, -12 * b, -6 * b * L, 0, 12 * b, -6 * b * L],
        [0, 6 * b * L, 2 * b * L**2, 0, -6 * b * L, 4 * b * L**2],
    ])


def _frame_mass_local(rho, A, L):
    return rho * A * L / 420.0 * np.array([
        [140, 0, 0, 70, 0, 0],
        [0, 156, 22 * L, 0, 54, -13 * L],
        [0, 22 * L, 4 * L**2, 0, 13 * L, -3 * L**2],
        [70, 0, 0, 140, 0, 0],
        [0, 54, 13 * L, 0, 156, -22 * L],
        [0, -13 * L, -3 * L**2, 0, -22 * L, 4 * L**2],
    ])


class _Model:
    """The parts of an IR document the reference solver needs; every node
    carries (ux, uy, rz) and unstiffened rotations are dropped at solve time."""

    def __init__(self, doc: dict):
        self.doc = doc
        self.pos = {n["id"]: (n["x"], n["y"]) for n in doc["nodes"]}
        mats = {m["id"]: m for m in doc["materials"]}
        secs = {s["id"]: s for s in doc["sections"]}
        self.members = []  # (kind, n1, n2, E, A, I, rho)
        for e in doc["elements"]:
            s = secs[e["section"]]
            m = mats[s["material"]]
            self.members.append((e["kind"], e["nodes"][0], e["nodes"][1], m["youngs_modulus"],
                                 s["area"], s.get("moment_of_inertia"), m["density"]))

    def subdivide(self, n_sub: int) -> None:
        """Split every frame member into ``n_sub`` equal elements, in place."""
        pos = self.pos
        members = []
        next_id = max(pos) + 1
        for kind, a, b, E, A, I, rho in self.members:
            if kind != "frame_beam":
                members.append((kind, a, b, E, A, I, rho))
                continue
            (x1, y1), (x2, y2) = pos[a], pos[b]
            chain = [a]
            for i in range(1, n_sub):
                t = i / n_sub
                pos[next_id] = (x1 + t * (x2 - x1), y1 + t * (y2 - y1))
                chain.append(next_id)
                next_id += 1
            chain.append(b)
            members += [(kind, p, q, E, A, I, rho) for p, q in zip(chain, chain[1:])]
        self.members = members

    def assemble(self, with_mass: bool):
        ids = sorted(self.pos)
        slot = {nid: i for i, nid in enumerate(ids)}
        n = 3 * len(ids)
        rows, cols, kv, mv = [], [], [], []
        for kind, a, b, E, A, I, rho in self.members:
            (x1, y1), (x2, y2) = self.pos[a], self.pos[b]
            L = math.hypot(x2 - x1, y2 - y1)
            c, s = (x2 - x1) / L, (y2 - y1) / L
            r = np.array([[c, s, 0], [-s, c, 0], [0, 0, 1.0]])
            t = np.zeros((6, 6))
            t[:3, :3] = r
            t[3:, 3:] = r
            if kind == "truss_bar":
                k_loc = np.zeros((6, 6))
                k_loc[np.ix_([0, 3], [0, 3])] = E * A / L * np.array([[1, -1], [-1, 1.0]])
                m_loc = np.zeros((6, 6))
                m_loc[np.ix_([0, 1, 3, 4], [0, 1, 3, 4])] = rho * A * L / 6 * np.array(
                    [[2, 0, 1, 0], [0, 2, 0, 1], [1, 0, 2, 0], [0, 1, 0, 2.0]])
            else:
                k_loc = _frame_local(E, A, I, L)
                m_loc = _frame_mass_local(rho, A, L)
            dofs = [3 * slot[a], 3 * slot[a] + 1, 3 * slot[a] + 2,
                    3 * slot[b], 3 * slot[b] + 1, 3 * slot[b] + 2]
            rr, cc = np.meshgrid(dofs, dofs, indexing="ij")
            rows.append(rr.ravel())
            cols.append(cc.ravel())
            kv.append((t.T @ k_loc @ t).ravel())
            if with_mass:
                # truss mass is isotropic, so the rotation leaves it unchanged
                mv.append((m_loc if kind == "truss_bar" else t.T @ m_loc @ t).ravel())
        rows, cols = np.concatenate(rows), np.concatenate(cols)
        K = scipy.sparse.coo_matrix((np.concatenate(kv), (rows, cols)), shape=(n, n)).tocsc()
        M = (scipy.sparse.coo_matrix((np.concatenate(mv), (rows, cols)), shape=(n, n)).tocsc()
             if with_mass else None)
        fixed = set()
        for bc in self.doc["bcs"]:
            for d in bc["dofs"]:
                fixed.add(3 * slot[bc["node"]] + ("ux", "uy", "rz").index(d))
        diag = K.diagonal()
        free = np.array([i for i in range(n) if i not in fixed and diag[i] != 0.0])
        f = np.zeros(n)
        for ld in self.doc["loads"]:
            base = 3 * slot[ld["node"]]
            f[base:base + 3] += (ld["fx"], ld["fy"], ld.get("mz", 0.0))
        return ids, K, M, f, free


def static_highlights(doc: dict) -> dict[str, float]:
    model = _Model(doc)
    ids, K, _, f, free = model.assemble(with_mass=False)
    u = np.zeros(K.shape[0])
    u[free] = scipy.sparse.linalg.spsolve(K[free][:, free], f[free])
    out = {"max_displacement_m": max(math.hypot(u[3 * i], u[3 * i + 1])
                                     for i in range(len(ids)))}
    slot = {nid: i for i, nid in enumerate(ids)}
    stresses = []
    for kind, a, b, E, A, I, rho in model.members:
        if kind != "truss_bar":
            continue
        (x1, y1), (x2, y2) = model.pos[a], model.pos[b]
        L = math.hypot(x2 - x1, y2 - y1)
        c, s = (x2 - x1) / L, (y2 - y1) / L
        ia, ib = 3 * slot[a], 3 * slot[b]
        stretch = (u[ib] - u[ia]) * c + (u[ib + 1] - u[ia + 1]) * s
        stresses.append(abs(E / L * stretch))
    if stresses:
        out["max_abs_axial_stress_pa"] = float(max(stresses))
    return out


def modal_highlights(doc: dict, subdivisions: int = MODAL_SUBDIVISIONS) -> dict[str, float]:
    """First natural frequency by shift-invert Lanczos on the refined model."""
    model = _Model(doc)
    model.subdivide(subdivisions)
    _, K, M, _, free = model.assemble(with_mass=True)
    Kff, Mff = K[free][:, free], M[free][:, free]
    w2 = scipy.sparse.linalg.eigsh(Kff, k=1, M=Mff, sigma=0.0, which="LM",
                                   return_eigenvectors=False)
    return {"first_frequency_hz": math.sqrt(float(w2[0])) / (2 * math.pi)}


def highlights(doc: dict) -> dict[str, float]:
    mode = doc["analysis"]["mode"]
    if mode == "static":
        return static_highlights(doc)
    if mode == "modal":
        return modal_highlights(doc)
    raise ValueError(f"no independent reference for mode {mode!r}")


def check_highlights(got: dict[str, float],
                     expected: dict[str, tuple[float, float]]) -> str | None:
    """None when every expected highlight is present and within its relative
    tolerance, else a one-line description of the first mismatch."""
    for key, (value, tol) in sorted(expected.items()):
        if key not in got:
            return f"highlight {key} missing"
        if not math.isfinite(got[key]) or abs(got[key] - value) > tol * abs(value):
            return f"{key} = {got[key]!r}, reference {value!r} (rel tol {tol:g})"
    return None


def load_suite_reference() -> dict[str, dict[str, tuple[float, float]]]:
    """Committed highlights for every bundled case, closed forms layered on top."""
    doc = json.loads(SUITE_REFERENCE.read_text(encoding="utf-8"))
    out = {case: {k: (v, doc["rel_tol"]) for k, v in hl.items()}
           for case, hl in doc["cases"].items()}
    for case, hl in closed_form().items():
        out[case].update(hl)
    return out


def _write_suite_reference(repo: Path) -> None:
    """Static and modal cases come from this module's solver; the one
    topology-optimisation case has no independent solver and records the
    program's output at the commit that wrote the file."""
    sys.path.insert(0, str(repo / "src"))
    from vfea.ir import deserialize
    from vfea.solver import optimize_topology

    cases = {}
    for truth in sorted((repo / "cases").glob("*/truth.ir.json")):
        text = truth.read_text(encoding="utf-8")
        doc = json.loads(text)
        if doc["analysis"]["mode"] == "topology_optimization":
            res = optimize_topology(deserialize(text))
            cases[truth.parent.name] = {"final_compliance_j": res.compliance_history[-1],
                                        "final_volume_fraction": res.final_volume_fraction}
        else:
            cases[truth.parent.name] = highlights(doc)
    SUITE_REFERENCE.write_text(json.dumps({"rel_tol": REL_TOL, "cases": cases},
                                          indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _write_suite_reference(HERE.parent)
    print(f"wrote {SUITE_REFERENCE}")
