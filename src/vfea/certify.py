"""Physical acceptance of results read back, apart from the solver that made
them: one check per ``ir.MODES`` row, in that order, of the results against
the audited model, each returning the failed condition or None."""

from __future__ import annotations

from itertools import pairwise

from .ir import MODES

RESIDUAL_LIMIT = 1e-8     # beyond this the factorization is not trusted
VOLUME_SLACK = 1e-6       # accepted excess of an optimized volume fraction over its target


def _above(name: str, value: float, bound: float, slack: float = 0.0) -> str | None:
    """None when ``value`` is at most ``bound`` + ``slack``, else the failed condition."""
    return None if value <= bound + slack else f"{name} {value} above {bound}"


def _modal(rs, m) -> str | None:
    """None when the frequencies are above 0 and ascending, as many as the
    model's modal count (fewer only under the solver's note), with a shape
    each; else the failed condition."""
    f, (count,) = rs.frequencies_hz, MODES["modal"].values(m.analysis)
    if not f:
        return "no frequencies"
    order = next((f"frequency {b} after {a}, not ascending" for a, b in pairwise(f) if b < a),
                 None if f[0] > 0 else f"lowest frequency {f[0]} not above 0")
    if order:
        return order
    if len(f) > count or (len(f) < count and not rs.note):
        return f"{len(f)} frequencies for a modal count of {count}"
    if len(rs.mode_shapes) != len(f):
        return f"{len(rs.mode_shapes)} mode shapes for {len(f)} frequencies"
    return None


CHECKS = {
    "static": lambda rs, _: _above("equilibrium residual", rs.equilibrium_residual,
                                   RESIDUAL_LIMIT),
    "modal": _modal,
    "topology_optimization": lambda rs, m: _above(
        "final volume fraction", rs.final_volume_fraction,
        MODES["topology_optimization"].values(m.analysis)[0], VOLUME_SLACK),
}
