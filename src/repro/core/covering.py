"""Per-polygon quadtree coverings (substitute for ``S2RegionCoverer``).

Two covering styles, matching the paper's two join modes:

* :func:`budgeted_covering` / :func:`budgeted_interior_covering` mimic S2's
  cell-budgeted coverer (paper §3.4 default config). These are the coarse
  approximations the **accurate** join starts from; covering and interior
  covering overlap, so merging them exercises the paper's precision-
  preserving conflict resolution (Listing 1 / Figure 4).

* :func:`precision_covering` classifies space down to a fixed boundary
  level, producing a normalized partition: interior cells at adaptive
  (coarse) levels, boundary cells exactly at ``boundary_level``. This is
  the **approximate** join's precision-guaranteed covering (§3.2).

Classification engine
---------------------
A cell is *boundary* iff a polygon edge intersects it (exact separating-
axis test), else *interior*/*outside* by the containment status of its
center. To stay tractable on complex polygons (the fractal boroughs have
thousands of edges), the descent is hierarchical, like S2ShapeIndex's
clipped-edge propagation:

* each frontier cell carries the subset of edges intersecting it, so a
  child only tests its parent's edges (near the boundary that is O(1)
  edges, not O(all edges));
* a child's center-inside flag is derived from the parent's by counting
  crossings of the segment parent-center -> child-center against the
  parent's edge subset (the segment stays inside the parent cell, so no
  other edge can cross it). Degenerate constellations (a zero orientation
  value) fall back to a full point-in-polygon test.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import cellid
from repro.geometry.polygon import (
    Polygon,
    point_in_polygon,
    segments_cross,
    segments_intersect_rects,
)

OUTSIDE, BOUNDARY, INTERIOR = 0, 1, 2

# Cap on the (cells x edges) pairwise matrices per chunk.
_PAIR_CHUNK = 4_000_000


def classify_cells(ids: np.ndarray, poly: Polygon, extent: float) -> np.ndarray:
    """Classify each cell as OUTSIDE / BOUNDARY / INTERIOR wrt ``poly``.

    Exact but non-hierarchical (tests all edges); used for small batches
    (training refines 4 children at a time) and as the test reference for
    the hierarchical engine.
    """
    ids = np.asarray(ids, np.int64)
    out = np.empty(len(ids), np.int8)
    if len(ids) == 0:
        return out
    x0, y0, x1, y1 = cellid.cell_bounds(ids, extent)
    ex1, ey1, ex2, ey2 = poly.edges()
    n_e = len(ex1)
    step = max(1, _PAIR_CHUNK // max(1, n_e))
    boundary = np.zeros(len(ids), dtype=bool)
    for s in range(0, len(ids), step):
        sl = slice(s, s + step)
        boundary[sl] = segments_intersect_rects(
            ex1[None, :], ey1[None, :], ex2[None, :], ey2[None, :],
            x0[sl, None], y0[sl, None], x1[sl, None], y1[sl, None],
        ).any(axis=1)
    rest = np.flatnonzero(~boundary)
    cx = (x0[rest] + x1[rest]) / 2.0
    cy = (y0[rest] + y1[rest]) / 2.0
    inside = point_in_polygon(cx, cy, ex1, ey1, ex2, ey2)
    out[boundary] = BOUNDARY
    out[rest] = np.where(inside, INTERIOR, OUTSIDE)
    return out


@dataclass
class _Frontier:
    """One quadtree level of the hierarchical classifier."""

    cells: np.ndarray  # int64[n], all at the same level
    level: int
    center_in: np.ndarray  # bool[n]
    boundary: np.ndarray  # bool[n] — has >=1 intersecting edge
    pair_cell: np.ndarray  # int64[m] — index into cells (sorted)
    pair_edge: np.ndarray  # int64[m] — edge index

    @property
    def n(self) -> int:
        return len(self.cells)

    def classification(self) -> np.ndarray:
        out = np.where(self.center_in, INTERIOR, OUTSIDE).astype(np.int8)
        out[self.boundary] = BOUNDARY
        return out


def _initial_frontier(poly: Polygon, extent: float, max_start: int = 8) -> _Frontier:
    """Coarse seed cells covering the polygon's MBR, fully classified."""
    x0p, y0p, x1p, y1p = poly.mbr()
    span = max(x1p - x0p, y1p - y0p, 1e-9)
    level = 0
    while level < cellid.MAX_LEVEL and extent / (1 << (level + 1)) >= span / 2:
        level += 1
    while True:
        cells = cellid.cells_in_rect(x0p, y0p, x1p, y1p, level, extent)
        if len(cells) <= max_start or level == 0:
            break
        level -= 1
    ex1, ey1, ex2, ey2 = poly.edges()
    x0, y0, x1, y1 = cellid.cell_bounds(cells, extent)
    hit = segments_intersect_rects(
        ex1[None, :], ey1[None, :], ex2[None, :], ey2[None, :],
        x0[:, None], y0[:, None], x1[:, None], y1[:, None],
    )
    pair_cell, pair_edge = np.nonzero(hit)
    cx, cy = (x0 + x1) / 2, (y0 + y1) / 2
    center_in = point_in_polygon(cx, cy, ex1, ey1, ex2, ey2)
    return _Frontier(
        cells=cells,
        level=level,
        center_in=center_in,
        boundary=np.bincount(pair_cell, minlength=len(cells)).astype(bool),
        pair_cell=pair_cell.astype(np.int64),
        pair_edge=pair_edge.astype(np.int64),
    )


def _descend(f: _Frontier, split: np.ndarray, poly: Polygon, extent: float) -> _Frontier:
    """Split ``cells[split]`` into children and classify them hierarchically."""
    ex1, ey1, ex2, ey2 = poly.edges()
    kids = cellid.children(f.cells[split]).reshape(-1)  # 4 per parent
    parent_of_kid = np.repeat(np.arange(len(split)), 4)  # index into split
    kx0, ky0, kx1, ky1 = cellid.cell_bounds(kids, extent)
    kcx, kcy = (kx0 + kx1) / 2, (ky0 + ky1) / 2
    px0, py0, px1, py1 = cellid.cell_bounds(f.cells[split], extent)
    pcx, pcy = (px0 + px1) / 2, (py0 + py1) / 2

    # Candidate pairs: each split parent's pairs, replicated for 4 children.
    sel = np.isin(f.pair_cell, split)
    p_cell = f.pair_cell[sel]
    p_edge = f.pair_edge[sel]
    # Remap parent's global cell index -> position within `split`.
    remap = np.full(f.n, -1, np.int64)
    remap[split] = np.arange(len(split))
    p_pos = remap[p_cell]
    # (pair, child) expansion: 4 children per parent pair.
    kid_idx = (p_pos[:, None] * 4 + np.arange(4)[None, :]).reshape(-1)
    edge_idx = np.repeat(p_edge, 4)

    out_pairs_cell: list[np.ndarray] = []
    out_pairs_edge: list[np.ndarray] = []
    crossings = np.zeros(len(kids), np.int64)
    suspect = np.zeros(len(kids), dtype=bool)
    sx1, sy1, sx2, sy2 = ex1[edge_idx], ey1[edge_idx], ex2[edge_idx], ey2[edge_idx]
    intersects = segments_intersect_rects(
        sx1, sy1, sx2, sy2, kx0[kid_idx], ky0[kid_idx], kx1[kid_idx], ky1[kid_idx]
    )
    if intersects.any():
        out_pairs_cell.append(kid_idx[intersects])
        out_pairs_edge.append(edge_idx[intersects])

    # Center-status propagation: crossings of parent-center->child-center
    # with the parent's edges.
    par_pair = np.repeat(p_pos, 4)
    cr, dg = segments_cross(
        pcx[par_pair],
        pcy[par_pair],
        kcx[kid_idx],
        kcy[kid_idx],
        sx1,
        sy1,
        sx2,
        sy2,
    )
    np.add.at(crossings, kid_idx, cr.astype(np.int64))
    np.logical_or.at(suspect, kid_idx, dg)

    center_in = f.center_in[split][parent_of_kid] ^ (crossings & 1).astype(bool)
    if out_pairs_cell:
        pair_cell = np.concatenate(out_pairs_cell)
        pair_edge = np.concatenate(out_pairs_edge)
        order = np.argsort(pair_cell, kind="stable")
        pair_cell = pair_cell[order]
        pair_edge = pair_edge[order]
    else:
        pair_cell = np.empty(0, np.int64)
        pair_edge = np.empty(0, np.int64)
    boundary = np.zeros(len(kids), dtype=bool)
    boundary[pair_cell] = True

    # Degenerate propagation: recompute affected non-boundary children with
    # the exact full PIP test.
    redo = np.flatnonzero(suspect & ~boundary)
    if len(redo):
        center_in[redo] = point_in_polygon(
            kcx[redo], kcy[redo], ex1, ey1, ex2, ey2
        )
    return _Frontier(
        cells=kids,
        level=f.level + 1,
        center_in=center_in,
        boundary=boundary,
        pair_cell=pair_cell,
        pair_edge=pair_edge,
    )


def _subset_frontier(f: _Frontier, keep: np.ndarray) -> _Frontier:
    """Restrict a frontier to ``cells[keep]`` (reindexing the pairs)."""
    remap = np.full(f.n, -1, np.int64)
    remap[keep] = np.arange(len(keep))
    psel = remap[f.pair_cell] >= 0
    return _Frontier(
        cells=f.cells[keep],
        level=f.level,
        center_in=f.center_in[keep],
        boundary=f.boundary[keep],
        pair_cell=remap[f.pair_cell[psel]],
        pair_edge=f.pair_edge[psel],
    )


def precision_covering(
    poly: Polygon,
    extent: float,
    boundary_level: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Partition-style covering with a precision guarantee (paper §3.2).

    Returns ``(cell_ids, interior_flags)``: interior cells at adaptive
    levels (coarse in the middle of the polygon, emitted as soon as a cell
    is fully inside), boundary cells exactly at ``boundary_level`` so every
    boundary cell diagonal is ``sqrt(2) * extent / 2**boundary_level``.
    """
    out_ids: list[np.ndarray] = []
    out_int: list[np.ndarray] = []
    f = _initial_frontier(poly, extent)
    while f.n:
        interior = ~f.boundary & f.center_in
        if interior.any():
            out_ids.append(f.cells[interior])
            out_int.append(np.ones(int(interior.sum()), dtype=bool))
        if f.level == boundary_level:
            if f.boundary.any():
                out_ids.append(f.cells[f.boundary])
                out_int.append(np.zeros(int(f.boundary.sum()), dtype=bool))
            break
        split = np.flatnonzero(f.boundary)
        if len(split) == 0:
            break
        f = _descend(f, split, poly, extent)
    if not out_ids:
        return np.empty(0, np.int64), np.empty(0, bool)
    return np.concatenate(out_ids), np.concatenate(out_int)


def budgeted_covering(
    poly: Polygon,
    extent: float,
    max_cells: int = 256,
    max_level: int = 16,
) -> np.ndarray:
    """S2-style covering: union of cells ⊇ polygon, ≈``max_cells`` budget.

    Cells fully inside stop refining immediately (they are part of the
    covering); boundary cells refine while the budget allows, else are
    emitted coarse. Mirrors S2RegionCoverer's max_cells/max_level knobs.
    """
    result: list[np.ndarray] = []
    n_result = 0
    f = _initial_frontier(poly, extent)
    while f.n:
        interior = ~f.boundary & f.center_in
        if interior.any():
            result.append(f.cells[interior])
            n_result += int(interior.sum())
        n_boundary = int(f.boundary.sum())
        if f.level >= max_level or n_result + 4 * n_boundary > max_cells:
            if n_boundary:
                result.append(f.cells[f.boundary])
            break
        split = np.flatnonzero(f.boundary)
        if len(split) == 0:
            break
        f = _descend(f, split, poly, extent)
    if not result:
        return np.empty(0, np.int64)
    return np.concatenate(result)


def budgeted_interior_covering(
    poly: Polygon,
    extent: float,
    max_cells: int = 1024,
    max_level: int = 13,
) -> np.ndarray:
    """S2-style interior covering: union of cells ⊆ polygon (true hits).

    Boundary-intersecting cells refine while the budget allows and are
    *dropped* at the end — only fully-contained cells are emitted.
    """
    result: list[np.ndarray] = []
    n_result = 0
    f = _initial_frontier(poly, extent)
    while f.n:
        interior = ~f.boundary & f.center_in
        if interior.any():
            result.append(f.cells[interior])
            n_result += int(interior.sum())
        n_boundary = int(f.boundary.sum())
        if f.level >= max_level or n_result + 4 * n_boundary > max_cells:
            break  # drop unresolved boundary cells: not provably inside
        split = np.flatnonzero(f.boundary)
        if len(split) == 0:
            break
        f = _descend(f, split, poly, extent)
    if not result:
        return np.empty(0, np.int64)
    return np.concatenate(result)
