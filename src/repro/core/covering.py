"""Per-polygon quadtree coverings (substitute for ``S2RegionCoverer``).

Two covering styles, matching the paper's two join modes:

* :func:`budgeted_covering` / :func:`budgeted_interior_covering` mimic S2's
  cell-budgeted coverer (paper §3.4 default config). These are the coarse
  approximations the **accurate** join starts from; covering and interior
  covering overlap, so merging them exercises the paper's precision-
  preserving conflict resolution (Listing 1 / Figure 4).

* :func:`precision_covering` classifies space down to a fixed boundary
  level, producing a normalized partition: interior cells at adaptive
  (coarse) levels, boundary cells at ``boundary_level``. This is the
  **approximate** join's precision-guaranteed covering (§3.2).

All three are one descent (``_walk``) with different stopping rules.

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

The two clipped-edge steps, :func:`clip_edges` for the seed cells and
:func:`split_clipped` for each split, are shared with the S2ShapeIndex
analog (``baselines/shapeindex.py``).
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

# A descent starts from at most this many cells over the polygon's MBR.
_MAX_SEED_CELLS = 8


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


def clip_edges(cells: np.ndarray, edges, extent: float) -> tuple[np.ndarray, np.ndarray]:
    """(cell index, edge index) pairs of every edge intersecting a cell.

    ``edges`` is ``(x1, y1, x2, y2)``. The test is the full cross product,
    so ``cells`` are the few seed cells of a descent; :func:`split_clipped`
    carries the pairs down from there.
    """
    ex1, ey1, ex2, ey2 = edges
    x0, y0, x1, y1 = cellid.cell_bounds(cells, extent)
    hit = segments_intersect_rects(
        ex1[None, :], ey1[None, :], ex2[None, :], ey2[None, :],
        x0[:, None], y0[:, None], x1[:, None], y1[:, None],
    )
    return tuple(a.astype(np.int64) for a in np.nonzero(hit))


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


def _initial_frontier(poly: Polygon, extent: float) -> _Frontier:
    """Coarse seed cells covering the polygon's MBR, fully classified."""
    x0p, y0p, x1p, y1p = poly.mbr()
    span = max(x1p - x0p, y1p - y0p, 1e-9)
    level = 0
    while level < cellid.MAX_LEVEL and extent / (1 << (level + 1)) >= span / 2:
        level += 1
    while True:
        cells = cellid.cells_in_rect(x0p, y0p, x1p, y1p, level, extent)
        if len(cells) <= _MAX_SEED_CELLS or level == 0:
            break
        level -= 1
    edges = poly.edges()
    pair_cell, pair_edge = clip_edges(cells, edges, extent)
    x0, y0, x1, y1 = cellid.cell_bounds(cells, extent)
    return _Frontier(
        cells=cells,
        level=level,
        center_in=point_in_polygon((x0 + x1) / 2, (y0 + y1) / 2, *edges),
        boundary=np.bincount(pair_cell, minlength=len(cells)).astype(bool),
        pair_cell=pair_cell,
        pair_edge=pair_edge,
    )


def _descend(f: _Frontier, split: np.ndarray, poly: Polygon, extent: float) -> _Frontier:
    """Split ``cells[split]`` into children and classify them hierarchically."""
    edges = poly.edges()
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

    # Degenerate propagation: recompute affected non-boundary children with
    # the exact full PIP test.
    suspect = np.zeros(len(kids), dtype=bool)
    suspect[cand_cell[dg]] = True
    redo = np.flatnonzero(suspect & ~boundary)
    if len(redo):
        center_in[redo] = point_in_polygon(kcx[redo], kcy[redo], *edges)
    return _Frontier(
        cells=kids,
        level=f.level + 1,
        center_in=center_in,
        boundary=boundary,
        pair_cell=pair_cell,
        pair_edge=pair_edge,
    )


def _walk(
    poly: Polygon, extent: float, max_level: int, max_cells: float, keep_boundary: bool
) -> tuple[np.ndarray, np.ndarray]:
    """The one covering descent: ``(cell_ids, interior_flags)``.

    Each level emits its interior cells. Boundary cells split until
    ``level >= max_level`` or the next split could exceed ``max_cells``;
    then they are emitted as candidates (``keep_boundary``) or dropped.
    """
    ids: list[np.ndarray] = []
    n_interior = 0
    f = _initial_frontier(poly, extent)
    while True:
        interior = ~f.boundary & f.center_in
        ids.append(f.cells[interior])
        n_interior += len(ids[-1])
        n_boundary = int(f.boundary.sum())
        if (
            n_boundary == 0
            or f.level >= max_level
            or n_interior + 4 * n_boundary > max_cells
        ):
            break
        f = _descend(f, np.flatnonzero(f.boundary), poly, extent)
    flags = np.ones(n_interior, bool)
    if keep_boundary:
        ids.append(f.cells[f.boundary])
        flags = np.append(flags, np.zeros(len(ids[-1]), bool))
    return np.concatenate(ids), flags


def precision_covering(
    poly: Polygon,
    extent: float,
    boundary_level: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Partition-style covering with a precision guarantee (paper §3.2).

    Returns ``(cell_ids, interior_flags)``: interior cells at adaptive
    levels (coarse in the middle of the polygon, emitted as soon as a cell
    is fully inside), boundary cells at ``boundary_level``, or finer for a
    polygon smaller than such a cell, so no boundary cell diagonal exceeds
    ``sqrt(2) * extent / 2**boundary_level``.
    """
    return _walk(poly, extent, boundary_level, np.inf, keep_boundary=True)


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
    return _walk(poly, extent, max_level, max_cells, keep_boundary=True)[0]


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
    return _walk(poly, extent, max_level, max_cells, keep_boundary=False)[0]
