"""S2ShapeIndex analog (paper's "SI1"/"SI10" baselines).

S2ShapeIndex maps grid cells to the *polygon edges* crossing them, plus a
containment flag for polygons that fully contain the cell. A PIP test is
then restricted to the edges stored in the cell: containment of a query
point is the cell-center's containment flag XOR the parity of crossings of
the segment point->center with the cell's edges. Cells with no edges of a
polygon and a positive containment flag are true hits (SI's coarser form
of true hit filtering, paper §4.2). A point whose segment meets an edge
degenerately (a zero orientation) takes the full PIP test instead.

``max_edges_per_cell`` controls the grid granularity exactly like S2's
S2ShapeIndexOptions::max_edges_per_cell (paper: SI1 = 1, SI10 = 10,
default). The cell set is a disjoint multi-resolution partition stored in a
sorted array probed with binary search (S2 stores it in a B-tree; the
paper's point — a much coarser grid and edge-restricted PIP tests instead
of ACT's fine-grained true/candidate classification — is preserved).

Build is vectorized with the covering engine's own clipped-edge machinery:
the start grid is clipped against every polygon's edges
(``covering._clip_to_polygons``), frontier cells carry their
intersecting-edge subsets down the quadtree (``covering.split_clipped``),
and the final cells' center containment is one R-tree filter-and-refine
join (``rtree.rtree_join``, refined by ``PolygonSet.contains``).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.rtree import build_rtree, rtree_join
from repro.core import cellid
from repro.core.covering import _clip_to_polygons, split_clipped
from repro.geometry.polygon import PolygonSet, segments_cross

#: Level of the uniform grid the adaptive split starts from.
_START_LEVEL = 2


@dataclass
class ShapeIndex:
    ids: np.ndarray  # sorted disjoint cell ids
    # Ragged per-cell edge lists (indices into pset edge arrays).
    edge_offsets: np.ndarray
    edge_idx: np.ndarray
    # Ragged per-cell list of polygons whose interior contains the center.
    cin_offsets: np.ndarray
    cin_poly: np.ndarray
    centers_x: np.ndarray
    centers_y: np.ndarray
    pset: PolygonSet
    extent: float
    max_edges_per_cell: int

    def locate(self, point_ids: np.ndarray) -> np.ndarray:
        """Index of the containing cell per point (-1 = none)."""
        point_ids = np.asarray(point_ids, np.int64)
        return cellid.locate(self.ids, point_ids, np.searchsorted(self.ids, point_ids))

    def join(
        self, px: np.ndarray, py: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, dict]:
        """Exact point-polygon join; returns (point_idx, poly_id, stats)."""
        pt_ids = cellid.cell_from_point(px, py, self.extent)
        cell_of = self.locate(pt_ids)
        res_p: list[np.ndarray] = []
        res_g: list[np.ndarray] = []
        edges_tested = 0
        true_hits = 0
        ex1, ey1 = self.pset.edge_x1, self.pset.edge_y1
        ex2, ey2 = self.pset.edge_x2, self.pset.edge_y2
        epoly = self.pset.edge_poly
        # Group points by cell and resolve each group vectorized.
        order = np.argsort(cell_of, kind="stable")
        sorted_cells = cell_of[order]
        start = np.searchsorted(sorted_cells, 0, side="left")
        grp_bounds = start + np.flatnonzero(
            np.diff(sorted_cells[start:], prepend=-2) != 0
        )
        grp_bounds = np.append(grp_bounds, len(sorted_cells))
        for g in range(len(grp_bounds) - 1):
            a, b = grp_bounds[g], grp_bounds[g + 1]
            ci = int(sorted_cells[a])
            pts = order[a:b]
            eidx = self.edge_idx[self.edge_offsets[ci] : self.edge_offsets[ci + 1]]
            cin = set(
                self.cin_poly[self.cin_offsets[ci] : self.cin_offsets[ci + 1]].tolist()
            )
            cx, cy = self.centers_x[ci], self.centers_y[ci]
            cell_polys = np.unique(epoly[eidx]) if len(eidx) else np.empty(0, np.int32)
            # Polygons containing the center but with no edges here: every
            # point in the cell is inside — a true hit, no PIP needed.
            for p in cin - set(cell_polys.tolist()):
                res_p.append(pts)
                res_g.append(np.full(len(pts), p, np.int64))
                true_hits += len(pts)
            # Polygons with edges in the cell: restricted PIP via crossing
            # parity of the segment point -> cell center.
            for p in cell_polys:
                pe = eidx[epoly[eidx] == p]
                edges_tested += len(pts) * len(pe)
                cross, dg = segments_cross(
                    px[pts, None], py[pts, None], cx, cy,
                    ex1[None, pe], ey1[None, pe], ex2[None, pe], ey2[None, pe],
                )
                inside = (cross.sum(axis=1) & 1).astype(bool)
                if int(p) in cin:
                    inside = ~inside
                # A degenerate crossing (a point, the centre or an edge
                # collinear) makes the parity untrustworthy: full PIP test.
                redo = dg.any(axis=1)
                inside[redo] = self.pset.contains(
                    px[pts[redo]], py[pts[redo]], np.full(int(redo.sum()), p)
                )
                hit = pts[inside]
                if len(hit):
                    res_p.append(hit)
                    res_g.append(np.full(len(hit), p, np.int64))
        stats = {"edges_tested": int(edges_tested), "true_hits": int(true_hits)}
        if not res_p:
            return np.empty(0, np.int64), np.empty(0, np.int64), stats
        return np.concatenate(res_p), np.concatenate(res_g), stats


def build_shapeindex(
    pset: PolygonSet,
    extent: float,
    max_edges_per_cell: int = 10,
    max_level: int = 14,
) -> ShapeIndex:
    """Adaptive grid: split cells while they hold > max_edges_per_cell edges."""
    cells = cellid.cells_in_rect(0, 0, extent, extent, _START_LEVEL, extent)
    edges = (pset.edge_x1, pset.edge_y1, pset.edge_x2, pset.edge_y2)
    # Row r of the clip is the pair (cell r // n, polygon r % n).
    n = len(pset)
    row, pair_edge = _clip_to_polygons(
        np.repeat(cells, n), np.tile(np.arange(n), len(cells)), pset, extent
    )
    pair_cell = row // n
    final_cells: list[np.ndarray] = []
    final_pair_cell: list[np.ndarray] = []  # cell ids
    final_pair_edge: list[np.ndarray] = []
    level = _START_LEVEL
    while True:
        counts = np.bincount(pair_cell, minlength=len(cells))
        split_mask = (counts > max_edges_per_cell) & (level < max_level)
        psel = ~split_mask[pair_cell]
        final_cells.append(cells[~split_mask])
        final_pair_cell.append(cells[pair_cell[psel]])
        final_pair_edge.append(pair_edge[psel])
        split = np.flatnonzero(split_mask)
        if len(split) == 0:
            break
        cells, _, _, pair_cell, pair_edge = split_clipped(
            cells, split, pair_cell, pair_edge, edges, extent
        )
        level += 1

    ids = np.sort(np.concatenate(final_cells))
    pc = np.concatenate(final_pair_cell)
    po = np.argsort(pc, kind="stable")
    edge_idx = np.concatenate(final_pair_edge)[po]
    edge_offsets = np.append(np.searchsorted(pc[po], ids), len(pc))

    x0, y0, x1, y1 = cellid.cell_bounds(ids, extent)
    cx0 = (x0 + x1) / 2
    cy0 = (y0 + y1) / 2
    # Which polygons contain each center: R-tree filter and refine.
    cin_cell, cin_poly, _ = rtree_join(cx0, cy0, build_rtree(pset), pset)
    o = np.argsort(cin_cell, kind="stable")
    cin_poly = cin_poly[o]
    cin_offsets = np.searchsorted(cin_cell[o], np.arange(len(ids) + 1))
    return ShapeIndex(
        ids=ids,
        edge_offsets=edge_offsets,
        edge_idx=edge_idx,
        cin_offsets=cin_offsets,
        cin_poly=cin_poly,
        centers_x=cx0,
        centers_y=cy0,
        pset=pset,
        extent=extent,
        max_edges_per_cell=max_edges_per_cell,
    )
