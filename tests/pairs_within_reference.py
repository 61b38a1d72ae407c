"""``vfea.ir.pairs_within`` as it was when it confirmed each near-threshold
candidate with ``math.dist`` one candidate at a time, kept verbatim as the
reference the batched confirmation is checked against (tests/test_ir.py)."""

from __future__ import annotations

import math
import sys

import numpy as np

from vfea.ir import _CELL_OFFSET, _CELL_ROW, _NEIGHBOURS


def pairs_within(points, r: float, others=None) -> tuple[np.ndarray, np.ndarray]:
    """The pairs of ``vfea.ir.pairs_within``, in its order."""
    p_xy = np.asarray(points, dtype=float).reshape(-1, 2)
    if not r >= 0:
        return np.zeros(0, np.intp), np.zeros(0, np.intp)
    one_set = others is None
    t_xy = p_xy if one_set else np.asarray(others, dtype=float).reshape(-1, 2)
    p_idx = np.flatnonzero(np.isfinite(p_xy).all(axis=1))
    t_idx = p_idx if one_set else np.flatnonzero(np.isfinite(t_xy).all(axis=1))
    span = max(float(np.abs(xy[idx]).max(initial=0.0))
               for xy, idx in ((p_xy, p_idx), (t_xy, t_idx)))
    # A cell a little wider than r (and never subnormal, where that margin
    # would round away), with every point at most 2**30 cells from the
    # origin, keeps the rounding of x / cell from putting two points within
    # r more than one cell apart, so the 3x3 scan misses no pair, and cell
    # indices small whatever the coordinates. An infinite cell is one cell.
    cell = max(r * (1 + 2 ** -20), span * 2 ** -30, 2 ** -1000)
    limit = min(r, sys.float_info.max)  # an overflowing distance never matches

    def cell_keys(xy, idx):
        c = np.floor(xy[idx] / cell).astype(np.int64) + _CELL_OFFSET
        return c[:, 0] * _CELL_ROW + c[:, 1]

    p_keys = cell_keys(p_xy, p_idx)
    t_keys = p_keys if one_set else cell_keys(t_xy, t_idx)
    order = np.argsort(t_keys, kind="stable")
    sorted_keys = t_keys[order]
    p_order = order if one_set else np.argsort(p_keys, kind="stable")
    # every (point, neighbour cell) query, and the run of targets in that
    # cell; the queries come as one ascending run per neighbour offset,
    # which the binary searches walk faster than scattered ones
    queries = (_NEIGHBOURS[:, None] + p_keys[p_order]).ravel()
    lo = np.searchsorted(sorted_keys, queries, side="left")
    counts = np.searchsorted(sorted_keys, queries, side="right") - lo
    first = np.repeat(lo - (np.cumsum(counts) - counts), counts)
    i = np.repeat(np.tile(p_idx[p_order], len(_NEIGHBOURS)), counts)
    j = t_idx[order[first + np.arange(len(first))]]
    if one_set:  # each pair once, never a point with itself
        keep = i < j
        i, j = i[keep], j[keep]
    with np.errstate(over="ignore", invalid="ignore"):  # a difference may overflow
        d = np.hypot(p_xy[i, 0] - t_xy[j, 0], p_xy[i, 1] - t_xy[j, 1])
    accept = d < r * (1 - 2 ** -40) - 2 ** -1070
    near = np.flatnonzero(~accept & (d <= r * (1 + 2 ** -40) + 2 ** -1070))
    dist = math.dist
    accept[[k for k in near.tolist()
            if dist(p_xy[i[k]].tolist(), t_xy[j[k]].tolist()) <= limit]] = True
    return i[accept], j[accept]
