"""S2ShapeIndex analog (paper's "SI1"/"SI10" baselines).

S2ShapeIndex maps grid cells to the *polygon edges* crossing them, plus a
containment flag for polygons that fully contain the cell. A PIP test is
then restricted to the edges stored in the cell: containment of a query
point is the cell-center's containment flag XOR the parity of crossings of
the segment point->center with the cell's edges. Cells with no edges of a
polygon and a positive containment flag are true hits (SI's coarser form
of true hit filtering, paper §4.2).

``max_edges_per_cell`` controls the grid granularity exactly like S2's
S2ShapeIndexOptions::max_edges_per_cell (paper: SI1 = 1, SI10 = 10,
default). The cell set is a disjoint multi-resolution partition stored in a
sorted array probed with binary search (S2 stores it in a B-tree; the
paper's point — a much coarser grid and edge-restricted PIP tests instead
of ACT's fine-grained true/candidate classification — is preserved).

Build is vectorized: frontier cells propagate their intersecting-edge
subsets down the quadtree (flat pair arrays, like the covering engine),
and cell-center containment is resolved in one batch with the exact
point-polygon machinery (itself validated against the SQL oracle).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import cellid
from repro.geometry.polygon import PolygonSet, segments_cross, segments_intersect_rects


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

    def nbytes(self) -> int:
        return int(
            self.ids.nbytes
            + self.edge_offsets.nbytes
            + self.edge_idx.nbytes
            + self.cin_offsets.nbytes
            + self.cin_poly.nbytes
        )

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
                cross, _ = segments_cross(
                    px[pts, None], py[pts, None], cx, cy,
                    ex1[None, pe], ey1[None, pe], ex2[None, pe], ey2[None, pe],
                )
                inside = (cross.sum(axis=1) & 1).astype(bool)
                if int(p) in cin:
                    inside = ~inside
                hit = pts[inside]
                if len(hit):
                    res_p.append(hit)
                    res_g.append(np.full(len(hit), p, np.int64))
        stats = {"edges_tested": int(edges_tested), "true_hits": int(true_hits)}
        if not res_p:
            return np.empty(0, np.int64), np.empty(0, np.int64), stats
        return np.concatenate(res_p), np.concatenate(res_g), stats


def _centers_containment(
    pset: PolygonSet, extent: float, cx: np.ndarray, cy: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(cell_idx, poly_id) pairs of centers inside polygons.

    Uses the exact accurate-join machinery (validated against the SQL
    oracle) as a build-time tool — a brute-force PIP over every (center,
    polygon) pair is infeasible for the fractal boroughs dataset.
    """
    from repro.core.join import build_index, probe_batch

    bundle = build_index(pset, extent, mode="accurate", precision_m=None)
    rows, polys, _true, _stats = probe_batch(bundle, cx, cy, exact=True)
    return rows, polys.astype(np.int64)


def build_shapeindex(
    pset: PolygonSet,
    extent: float,
    max_edges_per_cell: int = 10,
    max_level: int = 14,
    start_level: int = 2,
) -> ShapeIndex:
    """Adaptive grid: split cells while they hold > max_edges_per_cell edges."""
    cells = cellid.cells_in_rect(0, 0, extent, extent, start_level, extent)
    ex1, ey1 = pset.edge_x1, pset.edge_y1
    ex2, ey2 = pset.edge_x2, pset.edge_y2
    # Initial pairs: full product (few start cells).
    x0, y0, x1, y1 = cellid.cell_bounds(cells, extent)
    hit = segments_intersect_rects(
        ex1[None, :], ey1[None, :], ex2[None, :], ey2[None, :],
        x0[:, None], y0[:, None], x1[:, None], y1[:, None],
    )
    pair_cell, pair_edge = (a.astype(np.int64) for a in np.nonzero(hit))

    final_cells: list[np.ndarray] = []
    final_pair_cell: list[np.ndarray] = []  # local index within this batch
    final_pair_edge: list[np.ndarray] = []
    n_final = 0
    level = start_level
    while len(cells):
        counts = np.bincount(pair_cell, minlength=len(cells))
        split_mask = (counts > max_edges_per_cell) & (level < max_level)
        done = ~split_mask
        if done.any():
            keep_idx = np.flatnonzero(done)
            remap = np.full(len(cells), -1, np.int64)
            remap[keep_idx] = n_final + np.arange(len(keep_idx))
            psel = done[pair_cell]
            final_cells.append(cells[keep_idx])
            final_pair_cell.append(remap[pair_cell[psel]])
            final_pair_edge.append(pair_edge[psel])
            n_final += len(keep_idx)
        split = np.flatnonzero(split_mask)
        if len(split) == 0:
            break
        kids = cellid.children(cells[split]).reshape(-1)
        # Parent pairs replicated for the 4 children, then filtered.
        remap = np.full(len(cells), -1, np.int64)
        remap[split] = np.arange(len(split))
        psel = split_mask[pair_cell]
        p_pos = remap[pair_cell[psel]]
        p_edge = pair_edge[psel]
        kid_idx = (p_pos[:, None] * 4 + np.arange(4)[None, :]).reshape(-1)
        edge_idx = np.repeat(p_edge, 4)
        kx0, ky0, kx1, ky1 = cellid.cell_bounds(kids, extent)
        keep = segments_intersect_rects(
            ex1[edge_idx], ey1[edge_idx], ex2[edge_idx], ey2[edge_idx],
            kx0[kid_idx], ky0[kid_idx], kx1[kid_idx], ky1[kid_idx],
        )
        cells = kids
        pair_cell = kid_idx[keep]
        pair_edge = edge_idx[keep]
        order = np.argsort(pair_cell, kind="stable")
        pair_cell = pair_cell[order]
        pair_edge = pair_edge[order]
        level += 1

    ids = np.concatenate(final_cells) if final_cells else np.empty(0, np.int64)
    pc = (
        np.concatenate(final_pair_cell) if final_pair_cell else np.empty(0, np.int64)
    )
    pe = (
        np.concatenate(final_pair_edge) if final_pair_edge else np.empty(0, np.int64)
    )
    order = np.argsort(ids)
    rank = np.empty(len(ids), np.int64)
    rank[order] = np.arange(len(ids))
    ids = ids[order]
    pc = rank[pc]
    po = np.argsort(pc, kind="stable")
    pc, pe = pc[po], pe[po]
    edge_offsets = np.zeros(len(ids) + 1, np.int64)
    np.add.at(edge_offsets, pc + 1, 1)
    np.cumsum(edge_offsets, out=edge_offsets)
    edge_idx = pe

    x0, y0, x1, y1 = cellid.cell_bounds(ids, extent)
    cx0 = (x0 + x1) / 2
    cy0 = (y0 + y1) / 2
    cin_cell, cin_poly = _centers_containment(pset, extent, cx0, cy0)
    o = np.argsort(cin_cell, kind="stable")
    cin_cell = cin_cell[o]
    cin_poly = cin_poly[o]
    cin_offsets = np.zeros(len(ids) + 1, np.int64)
    np.add.at(cin_offsets, cin_cell + 1, 1)
    np.cumsum(cin_offsets, out=cin_offsets)
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
