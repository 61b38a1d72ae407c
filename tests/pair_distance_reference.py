"""``vfea.validation._pair_distance_within`` as it was when it scanned the
node pairs row by row, quadratic in the node count, kept verbatim as the
oracle the ``pairs_within`` search is checked against (tests/test_validation.py)."""

from __future__ import annotations

import math

import numpy as np

# relative widening of the L4 band for numpy's squared distances, which may
# differ from math.hypot's in the last bits; candidates are confirmed exactly
_HYPOT_SLACK = 1e-12


def _pair_distance_within(xs: np.ndarray, ys: np.ndarray, lo: float, hi: float) -> bool:
    """Whether ``lo <= math.hypot(xb - xa, yb - ya) <= hi`` for some node pair.

    Each node's row of squared distances to the later nodes is computed with
    numpy, and the scan stops at the first row that matches. The row is
    screened against the band widened by a relative ``_HYPOT_SLACK`` (and by
    1e-300, for squares that underflow); the survivors, and any NaN, are
    confirmed with ``math.hypot`` on the same differences, so the predicate
    is the exact one.
    """
    if not hi >= 0:  # no distance is negative or NaN-bounded
        return False
    lo2 = lo * lo * (1 - _HYPOT_SLACK) - 1e-300 if lo > 0 else -math.inf
    hi2 = hi * hi * (1 + _HYPOT_SLACK) + 1e-300
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN are screened in
        for k in range(len(xs) - 1):
            dx = xs[k + 1:] - xs[k]
            dy = ys[k + 1:] - ys[k]
            d2 = dx * dx + dy * dy
            for j in np.flatnonzero(~((d2 < lo2) | (d2 > hi2))):
                if lo <= math.hypot(dx[j], dy[j]) <= hi:
                    return True
    return False
