"""R-tree on polygon MBRs (paper's "RT": boost R-tree, filter & refine).

STR (Sort-Tile-Recursive) bulk-loaded R-tree with at most 8 entries per
node (the paper's best-performing boost configuration). The classic
two-phase join the paper argues against: the filter phase probes the MBR
tree per point and yields *candidate* polygons only — every candidate then
needs an exact PIP test in the refinement phase, which is what makes this
baseline slow on complex polygons (boroughs).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.polygon import PolygonSet, _ranges

MAX_ENTRIES = 8


@dataclass
class RTreeLevel:
    bounds: np.ndarray  # (n_nodes, 4): x0 y0 x1 y1
    child_start: np.ndarray  # (n_nodes,) index into next level / leaf ids
    child_count: np.ndarray  # (n_nodes,)


@dataclass
class RTreeIndex:
    levels: list[RTreeLevel]  # root level first
    leaf_ids: np.ndarray  # polygon ids in STR order
    leaf_bounds: np.ndarray  # (n_leaves, 4): their MBRs, in the same order

    def query_points(
        self, px: np.ndarray, py: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Candidate (point_idx, polygon_id) pairs + total node accesses."""
        n = len(px)
        pts = np.arange(n, dtype=np.int64)
        nodes = np.zeros(n, np.int64)  # everyone starts at the root
        node_accesses = 0
        for lvl_i, lvl in enumerate(self.levels):
            node_accesses += len(nodes)
            # Expand each (point, node) pair into its children, keep those
            # whose MBR contains the point.
            cs = lvl.child_start[nodes]
            cc = lvl.child_count[nodes]
            rep_pts = np.repeat(pts, cc)
            child = _ranges(cs, cc)
            if lvl_i + 1 < len(self.levels):
                nb = self.levels[lvl_i + 1].bounds
            else:
                nb = None
            if nb is not None:
                keep = (
                    (px[rep_pts] >= nb[child, 0])
                    & (px[rep_pts] <= nb[child, 2])
                    & (py[rep_pts] >= nb[child, 1])
                    & (py[rep_pts] <= nb[child, 3])
                )
                pts = rep_pts[keep]
                nodes = child[keep]
            else:
                # Children are leaf entries (polygon MBRs).
                keep = (
                    (px[rep_pts] >= self.leaf_bounds[child, 0])
                    & (px[rep_pts] <= self.leaf_bounds[child, 2])
                    & (py[rep_pts] >= self.leaf_bounds[child, 1])
                    & (py[rep_pts] <= self.leaf_bounds[child, 3])
                )
                return rep_pts[keep], self.leaf_ids[child[keep]], node_accesses
        return np.empty(0, np.int64), np.empty(0, np.int64), node_accesses


def _str_pack(bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One STR packing round: group entries into nodes of MAX_ENTRIES.

    Returns (order, node_bounds): ``order`` permutes entries into packing
    order; consecutive runs of MAX_ENTRIES form a node.
    """
    n = len(bounds)
    cx = (bounds[:, 0] + bounds[:, 2]) / 2
    cy = (bounds[:, 1] + bounds[:, 3]) / 2
    n_nodes = (n + MAX_ENTRIES - 1) // MAX_ENTRIES
    n_slices = int(np.ceil(np.sqrt(n_nodes)))
    run = n_slices * MAX_ENTRIES
    by_x = np.argsort(cx, kind="stable")
    order = np.empty(n, np.int64)
    pos = 0
    for s in range(0, n, run):
        sl = by_x[s : s + run]
        sl = sl[np.argsort(cy[sl], kind="stable")]
        order[pos : pos + len(sl)] = sl
        pos += len(sl)
    ob = bounds[order]
    node_bounds = np.empty((n_nodes, 4), np.float64)
    for k in range(n_nodes):
        chunk = ob[k * MAX_ENTRIES : (k + 1) * MAX_ENTRIES]
        node_bounds[k] = (
            chunk[:, 0].min(),
            chunk[:, 1].min(),
            chunk[:, 2].max(),
            chunk[:, 3].max(),
        )
    return order, node_bounds


def build_rtree(pset: PolygonSet) -> RTreeIndex:
    """STR bulk load over the polygon MBRs."""
    bounds = pset.mbrs.copy()
    ids = np.arange(len(pset), dtype=np.int64)
    order, node_bounds = _str_pack(bounds)
    leaf_ids = ids[order]
    leaf_bounds = bounds[order]

    # child_start/count of the level directly above the leaf entries.
    def level_over(child_n: int, node_bounds: np.ndarray) -> RTreeLevel:
        n_nodes = len(node_bounds)
        starts = np.arange(n_nodes, dtype=np.int64) * MAX_ENTRIES
        counts = np.full(n_nodes, MAX_ENTRIES, np.int64)
        counts[-1] = child_n - starts[-1]
        return RTreeLevel(bounds=node_bounds, child_start=starts, child_count=counts)

    levels = [level_over(len(leaf_ids), node_bounds)]
    while len(levels[0].bounds) > 1:
        child_bounds = levels[0].bounds
        order2, nb2 = _str_pack(child_bounds)
        # Permute the child level into packing order.
        lvl = levels[0]
        levels[0] = RTreeLevel(
            bounds=lvl.bounds[order2],
            child_start=lvl.child_start[order2],
            child_count=lvl.child_count[order2],
        )
        levels.insert(0, level_over(len(order2), nb2))
    return RTreeIndex(levels=levels, leaf_ids=leaf_ids, leaf_bounds=leaf_bounds)


def rtree_join(
    px: np.ndarray, py: np.ndarray, idx: RTreeIndex, pset: PolygonSet
) -> tuple[np.ndarray, np.ndarray, dict]:
    """Classic filter & refine join: MBR filter, then PIP per candidate.

    Returns (point_idx, poly_id, stats) for all exact containments.
    """
    cand_pts, cand_polys, node_acc = idx.query_points(px, py)
    keep = pset.contains(px[cand_pts], py[cand_pts], cand_polys)
    stats = {
        "candidates": int(len(cand_pts)),
        "pip_tests": int(len(cand_pts)),
        "node_accesses": int(node_acc),
    }
    return cand_pts[keep], cand_polys[keep], stats
