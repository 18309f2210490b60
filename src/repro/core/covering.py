"""Quadtree coverings of polygons (substitute for ``S2RegionCoverer``).

Every covering comes from one descent, :func:`cover_polygons`. It walks
the frontiers of many *covering jobs* (a polygon and a stopping rule)
together, one quadtree level per step, so the cost of a step is paid once
per dataset rather than once per polygon (the paper parallelizes this
phase over polygons). The stopping rules give the paper's two join modes
their coverings (``join.compute_coverings``):

* the **approximate** join's precision-guaranteed covering (§3.2): a
  normalized partition with interior cells at adaptive (coarse) levels and
  boundary cells at the precision level (finer for a polygon smaller than
  one such cell), so no boundary cell's diagonal exceeds the bound;
* the **accurate** join's S2-style cell-budgeted covering and interior
  covering (paper §3.4 default config, ``join.ACCURATE_COVERER_CFG``).
  They overlap, so merging them exercises the paper's precision-preserving
  conflict resolution (Listing 1 / Figure 4).

Index training and precision refinement (``training.py``) are the same
walk, :func:`_walk`, from the cells they split. :func:`classify_pairs` is
the flat test reference, not a build step.

Classification engine
---------------------
A cell is *boundary* iff a polygon edge intersects it (exact separating-
axis test), else *interior*/*outside* by the containment status of its
center. To stay tractable on complex polygons (the fractal boroughs have
thousands of edges), the descent is hierarchical, like S2ShapeIndex's
clipped-edge propagation:

* each frontier cell carries the subset of its polygon's edges intersecting
  it (as ids into ``PolygonSet``'s flattened edge arrays), so a child only
  tests its parent's edges (near the boundary that is O(1) edges, not
  O(all edges));
* a child's center-inside flag is derived from the parent's by counting
  crossings of the segment parent-center -> child-center against the
  parent's edge subset (the segment stays inside the parent cell, so no
  other edge can cross it). Degenerate constellations (a zero orientation
  value) fall back to a full point-in-polygon test.

The split step, :func:`split_clipped`, is shared with the S2ShapeIndex
analog (``baselines/shapeindex.py``).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import cellid
from repro.geometry.polygon import (
    _PAIR_CHUNK,
    PolygonSet,
    _chunks,
    _edge_chunks,
    segments_cross,
    segments_intersect_rects,
)

OUTSIDE, BOUNDARY, INTERIOR = 0, 1, 2

# A descent starts from at most this many cells over the polygon's MBR.
_MAX_SEED_CELLS = 8


def _clip_to_polygons(
    cells: np.ndarray, polys: np.ndarray, pset: PolygonSet, extent: float
) -> tuple[np.ndarray, np.ndarray]:
    """(row, edge) pairs of every edge of polygon ``polys[row]`` that
    intersects ``cells[row]``, ordered by row."""
    x0, y0, x1, y1 = cellid.cell_bounds(cells, extent)
    ex1, ey1, ex2, ey2 = pset.edge_x1, pset.edge_y1, pset.edge_x2, pset.edge_y2
    lox, hix = np.minimum(ex1, ex2), np.maximum(ex1, ex2)
    loy, hiy = np.minimum(ey1, ey2), np.maximum(ey1, ey2)
    rows, edges = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for _, _, row, e in _edge_chunks(polys, pset):
        # Most of a polygon's edges are far from a cell: a bounding-box
        # test rules them out before the exact one.
        near = (
            (lox[e] <= x1[row]) & (hix[e] >= x0[row])
            & (loy[e] <= y1[row]) & (hiy[e] >= y0[row])
        )
        row, e = row[near], e[near]
        hit = segments_intersect_rects(
            ex1[e], ey1[e], ex2[e], ey2[e], x0[row], y0[row], x1[row], y1[row]
        )
        rows.append(row[hit])
        edges.append(e[hit])
    return np.concatenate(rows), np.concatenate(edges)


def _centers_inside(
    cells: np.ndarray, polys: np.ndarray, pset: PolygonSet, extent: float
) -> np.ndarray:
    """Whether each cell's center lies inside its polygon ``polys[row]``."""
    x0, y0, x1, y1 = cellid.cell_bounds(cells, extent)
    return pset.contains((x0 + x1) / 2, (y0 + y1) / 2, polys)


def classify_pairs(
    ids: np.ndarray, polys: np.ndarray, pset: PolygonSet, extent: float
) -> np.ndarray:
    """Classify each cell ``ids[i]`` as OUTSIDE / BOUNDARY / INTERIOR wrt
    polygon ``polys[i]`` of ``pset``.

    Exact but non-hierarchical (tests every edge of the polygon): the test
    reference for the hierarchical engine, which no build step calls. All
    pairs are classified in one pass, whatever their polygons.
    """
    ids = np.asarray(ids, np.int64)
    polys = np.asarray(polys, np.int64)
    boundary = np.zeros(len(ids), dtype=bool)
    boundary[_clip_to_polygons(ids, polys, pset, extent)[0]] = True
    rest = np.flatnonzero(~boundary)
    out = np.full(len(ids), BOUNDARY, np.int8)
    inside = _centers_inside(ids[rest], polys[rest], pset, extent)
    out[rest] = np.where(inside, INTERIOR, OUTSIDE)
    return out


@dataclass
class _Frontier:
    """One step of the hierarchical classifier: one level per job."""

    cells: np.ndarray  # int64[n], grouped by job
    job: np.ndarray  # int64[n] — covering job of each cell
    center_in: np.ndarray  # bool[n]
    boundary: np.ndarray  # bool[n] — has >=1 intersecting edge
    pair_cell: np.ndarray  # int64[m] — index into cells (sorted)
    pair_edge: np.ndarray  # int64[m] — index into the PolygonSet's edges


def split_clipped(
    cells: np.ndarray,
    split: np.ndarray,
    pair_cell: np.ndarray,
    pair_edge: np.ndarray,
    edges,
    extent: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split ``cells[split]`` and carry their clipped edges down.

    Returns ``(kids, cand_cell, cand_edge, pair_cell, pair_edge)``: the 4
    children of each split cell (in order, so child ``k`` has parent
    ``split[k // 4]``), every parent pair repeated for its 4 children
    (indices into ``kids`` and ``edges``), and the subset of those whose
    edge intersects the child, sorted by child. An edge can only meet a
    child if it meets the parent, so no other edge is tested.
    """
    ex1, ey1, ex2, ey2 = edges
    kids = cellid.children(cells[split]).reshape(-1)
    pos = np.full(len(cells), -1, np.int64)
    pos[split] = np.arange(len(split))
    p_pos = pos[pair_cell]
    sel = p_pos >= 0
    cand_cell = (p_pos[sel, None] * 4 + np.arange(4)[None, :]).reshape(-1)
    cand_edge = np.repeat(pair_edge[sel], 4)
    kx0, ky0, kx1, ky1 = cellid.cell_bounds(kids, extent)
    hit = segments_intersect_rects(
        ex1[cand_edge], ey1[cand_edge], ex2[cand_edge], ey2[cand_edge],
        kx0[cand_cell], ky0[cand_cell], kx1[cand_cell], ky1[cand_cell],
    )
    pair_cell, pair_edge = cand_cell[hit], cand_edge[hit]
    order = np.argsort(pair_cell, kind="stable")
    return kids, cand_cell, cand_edge, pair_cell[order], pair_edge[order]


def _seed_cells(mbr: np.ndarray, extent: float) -> tuple[np.ndarray, int]:
    """Coarse seed cells covering an MBR, and their level."""
    x0p, y0p, x1p, y1p = (float(v) for v in mbr)
    span = max(x1p - x0p, y1p - y0p, 1e-9)
    level = 0
    while level < cellid.MAX_LEVEL and extent / (1 << (level + 1)) >= span / 2:
        level += 1
    while True:
        cells = cellid.cells_in_rect(x0p, y0p, x1p, y1p, level, extent)
        if len(cells) <= _MAX_SEED_CELLS or level == 0:
            return cells, level
        level -= 1


def _clipped_frontier(
    cells: np.ndarray, job: np.ndarray, polys: np.ndarray, pset: PolygonSet, extent: float
) -> _Frontier:
    """A frontier of ``cells[i]`` for job ``job[i]``: each cell clipped
    against polygon ``polys[job[i]]`` and its centre tested, in one pass."""
    poly = polys[job]
    pair_cell, pair_edge = _clip_to_polygons(cells, poly, pset, extent)
    return _Frontier(
        cells=cells,
        job=job,
        center_in=_centers_inside(cells, poly, pset, extent),
        boundary=np.bincount(pair_cell, minlength=len(cells)) > 0,
        pair_cell=pair_cell,
        pair_edge=pair_edge,
    )


def _seed_frontier(
    pset: PolygonSet, polys: np.ndarray, extent: float
) -> tuple[_Frontier, np.ndarray]:
    """Every job's classified seed cells, and each job's seed level."""
    uniq, inv = np.unique(polys, return_inverse=True)
    seeds = [_seed_cells(pset.mbrs[p], extent) for p in uniq]
    cells = [np.empty(0, np.int64)] + [seeds[i][0] for i in inv]
    job = np.repeat(np.arange(len(polys)), [len(c) for c in cells[1:]])
    f = _clipped_frontier(np.concatenate(cells), job, polys, pset, extent)
    return f, np.array([seeds[i][1] for i in inv], np.int64)


def _descend(
    f: _Frontier, split: np.ndarray, polys: np.ndarray, pset: PolygonSet, extent: float
) -> _Frontier:
    """Split ``cells[split]`` into children and classify them hierarchically,
    in chunks of about ``_PAIR_CHUNK`` candidate (child, edge) pairs."""
    lo = np.searchsorted(f.pair_cell, split, side="left")
    hi = np.searchsorted(f.pair_cell, split, side="right")
    parts = []
    for a, b in _chunks(hi - lo, _PAIR_CHUNK // 4):
        c0, c1, p0, p1 = split[a], split[b - 1] + 1, lo[a], hi[b - 1]
        sub = _Frontier(
            cells=f.cells[c0:c1],
            job=f.job[c0:c1],
            center_in=f.center_in[c0:c1],
            boundary=f.boundary[c0:c1],
            pair_cell=f.pair_cell[p0:p1] - c0,
            pair_edge=f.pair_edge[p0:p1],
        )
        parts.append(_descend_chunk(sub, split[a:b] - c0, polys, pset, extent))
    offsets = np.cumsum([0] + [len(p.cells) for p in parts[:-1]])
    return _Frontier(
        cells=np.concatenate([p.cells for p in parts]),
        job=np.concatenate([p.job for p in parts]),
        center_in=np.concatenate([p.center_in for p in parts]),
        boundary=np.concatenate([p.boundary for p in parts]),
        pair_cell=np.concatenate([p.pair_cell + o for p, o in zip(parts, offsets)]),
        pair_edge=np.concatenate([p.pair_edge for p in parts]),
    )


def _descend_chunk(
    f: _Frontier, split: np.ndarray, polys: np.ndarray, pset: PolygonSet, extent: float
) -> _Frontier:
    """One chunk of :func:`_descend`."""
    edges = (pset.edge_x1, pset.edge_y1, pset.edge_x2, pset.edge_y2)
    ex1, ey1, ex2, ey2 = edges
    kids, cand_cell, cand_edge, pair_cell, pair_edge = split_clipped(
        f.cells, split, f.pair_cell, f.pair_edge, edges, extent
    )
    kx0, ky0, kx1, ky1 = cellid.cell_bounds(kids, extent)
    kcx, kcy = (kx0 + kx1) / 2, (ky0 + ky1) / 2
    px0, py0, px1, py1 = cellid.cell_bounds(f.cells[split], extent)
    pcx, pcy = (px0 + px1) / 2, (py0 + py1) / 2

    # Center-status propagation: crossings of parent-center->child-center
    # with the parent's edges.
    par = cand_cell // 4
    cr, dg = segments_cross(
        pcx[par], pcy[par], kcx[cand_cell], kcy[cand_cell],
        ex1[cand_edge], ey1[cand_edge], ex2[cand_edge], ey2[cand_edge],
    )
    odd = np.bincount(cand_cell[cr], minlength=len(kids)) & 1
    center_in = np.repeat(f.center_in[split], 4) ^ odd.astype(bool)
    boundary = np.zeros(len(kids), dtype=bool)
    boundary[pair_cell] = True
    job = np.repeat(f.job[split], 4)

    # Degenerate propagation: recompute affected children with the exact
    # full PIP test. Boundary children too, as their descendants inherit
    # the flag.
    suspect = np.zeros(len(kids), dtype=bool)
    suspect[cand_cell[dg]] = True
    redo = np.flatnonzero(suspect)
    if len(redo):
        center_in[redo] = _centers_inside(kids[redo], polys[job[redo]], pset, extent)
    return _Frontier(
        cells=kids,
        job=job,
        center_in=center_in,
        boundary=boundary,
        pair_cell=pair_cell,
        pair_edge=pair_edge,
    )


def _walk(
    f: _Frontier, polys: np.ndarray, pset: PolygonSet, extent: float, rule
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Walk frontier ``f`` down the quadtree, one level per step.

    Each step emits the frontier's interior cells and asks
    ``rule(f, interior)`` for two masks over the boundary cells: those to
    split, and those to emit as candidates (the rest are dropped). Job
    ``j`` covers polygon ``polys[j]``. Returns the emitted
    ``(cells, jobs, interior_flags)``, level by level.
    """
    out_cells, out_job, out_flag = [], [], []
    while True:
        interior = ~f.boundary & f.center_in
        split, keep = rule(f, interior)
        for mask, flag in ((interior, True), (keep, False)):
            out_cells.append(f.cells[mask])
            out_job.append(f.job[mask])
            out_flag.append(np.full(len(out_job[-1]), flag))
        split = np.flatnonzero(split)
        if len(split) == 0:
            return np.concatenate(out_cells), np.concatenate(out_job), np.concatenate(out_flag)
        f = _descend(f, split, polys, pset, extent)


def cover_polygons(
    pset: PolygonSet,
    polys,
    extent: float,
    max_level,
    max_cells,
    keep_boundary,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one covering descent, over many jobs at once.

    Job ``j`` covers ``pset.polygons[polys[j]]`` with its own stopping rule
    ``max_level[j]``, ``max_cells[j]`` and ``keep_boundary[j]`` (a scalar
    applies to every job). Each level emits a job's interior cells. Its
    boundary cells split until ``level >= max_level`` or the next split
    could exceed ``max_cells`` (interior cells so far plus 4 per boundary
    cell); then they are emitted as candidates (``keep_boundary``) or
    dropped. All jobs descend together, one level per step.

    Returns ``(cell_ids, interior_flags, offsets)``: job ``j``'s covering
    is ``cell_ids[offsets[j]:offsets[j + 1]]``, its interior cells level by
    level and then its boundary cells, whatever other jobs run with it.
    """
    polys = np.asarray(polys, np.int64)
    n = len(polys)
    max_level = np.broadcast_to(max_level, n)
    max_cells = np.broadcast_to(np.asarray(max_cells, np.float64), n)
    keep_boundary = np.broadcast_to(keep_boundary, n)
    f, level = _seed_frontier(pset, polys, extent)
    n_interior = np.zeros(n, np.int64)

    def rule(f: _Frontier, interior: np.ndarray):
        n_interior[:] += np.bincount(f.job[interior], minlength=n)
        n_boundary = np.bincount(f.job[f.boundary], minlength=n)
        stop = (
            (n_boundary == 0)
            | (level >= max_level)
            | (n_interior + 4 * n_boundary > max_cells)
        )
        level[~stop] += 1
        return f.boundary & ~stop[f.job], f.boundary & (stop & keep_boundary)[f.job]

    cells, job, flags = _walk(f, polys, pset, extent, rule)
    order = np.argsort(job, kind="stable")
    offsets = np.zeros(n + 1, np.int64)
    np.cumsum(np.bincount(job, minlength=n), out=offsets[1:])
    return cells[order], flags[order], offsets
