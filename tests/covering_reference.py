"""Brute-force cell classification, the reference for the covering descent.

``classify_pairs`` tests every edge of each pair's polygon, with no
hierarchy, and shares only the exact predicates with the descent that the
build runs (``covering.cover_polygons``): the clip of an edge against a
cell and the batched point-in-polygon test of a cell centre.
"""
import numpy as np

from repro.core.covering import _centers_inside, _clip_to_polygons

OUTSIDE, BOUNDARY, INTERIOR = 0, 1, 2


def classify_pairs(ids, polys, pset, extent) -> np.ndarray:
    """Classify each cell ``ids[i]`` as OUTSIDE / BOUNDARY / INTERIOR with
    respect to polygon ``polys[i]`` of ``pset``, all pairs in one pass."""
    ids = np.asarray(ids, np.int64)
    polys = np.asarray(polys, np.int64)
    boundary = np.zeros(len(ids), dtype=bool)
    boundary[_clip_to_polygons(ids, polys, pset, extent)[0]] = True
    rest = np.flatnonzero(~boundary)
    out = np.full(len(ids), BOUNDARY, np.int8)
    inside = _centers_inside(ids[rest], polys[rest], pset, extent)
    out[rest] = np.where(inside, INTERIOR, OUTSIDE)
    return out
