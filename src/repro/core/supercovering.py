"""Super covering: merge per-polygon coverings into one disjoint cell set.

Implements the paper's Listing 1 with the precision-preserving conflict
resolution of §3.1.1 / Figure 4: when an ancestor cell ``c1`` and a
descendant cell ``c2`` both occur, the result stores ``c2`` and the
difference ``d = c1 - c2`` (as quadtree cells), copying ``c1``'s polygon
references onto both. Identical cells merge their reference lists.

Instead of inserting cells one at a time, we use the set-based equivalent:
the final cell set is, for every distinct input cell ``c``, the quadtree
tiling of ``c`` minus the union of its *maximal proper descendants* among
the input cells; every output fragment inherits the references of all its
ancestors among the input cells (which is exactly what repeated Listing-1
insertion produces, independent of insertion order). Per-polygon reference
lists are deduplicated with interior=True taking precedence (a cell known
to be fully inside a polygon is a true hit even if a coarser boundary cell
also referenced that polygon).

The resulting cells are **disjoint**, so an index lookup returns at most
one cell — the property ACT's tagged pointer-or-value slots rely on.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import cellid


@dataclass
class SuperCovering:
    """Disjoint multi-resolution cells with per-cell polygon references.

    ``ids`` is sorted (curve order). References for cell ``i`` are
    ``ref_poly[ref_offsets[i]:ref_offsets[i+1]]`` with parallel
    ``ref_interior`` flags (True = true-hit/interior reference).
    """

    ids: np.ndarray  # int64, sorted
    ref_offsets: np.ndarray  # int64, len n+1
    ref_poly: np.ndarray  # int32
    ref_interior: np.ndarray  # bool
    extent: float

    @property
    def n_cells(self) -> int:
        return len(self.ids)

    def ref_counts(self) -> np.ndarray:
        return np.diff(self.ref_offsets)

    def candidate_mask(self) -> np.ndarray:
        """Cells with >=1 candidate (non-interior) reference — the
        "expensive" cells of §3.3.1 whose hits require PIP tests."""
        cell_of_ref = np.repeat(np.arange(self.n_cells), self.ref_counts())
        return np.bincount(cell_of_ref[~self.ref_interior], minlength=self.n_cells) > 0

    def levels(self) -> np.ndarray:
        return cellid.level_of(self.ids)

    def validate_disjoint(self) -> bool:
        """Disjoint cells sorted along the curve have disjoint id ranges."""
        if self.n_cells < 2:
            return True
        return bool(
            np.all(cellid.range_max(self.ids[:-1]) < cellid.range_min(self.ids[1:]))
        )

    def raw_bytes(self) -> int:
        """Raw key+refs payload (Table 1 reports 64-bit cells + refs)."""
        return int(
            self.ids.nbytes
            + self.ref_offsets.nbytes
            + self.ref_poly.nbytes
            + self.ref_interior.nbytes
        )


def _dedup_refs(
    cell_idx: np.ndarray, poly: np.ndarray, interior: np.ndarray, n_cells: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort refs by (cell, poly) and keep one per (cell, poly), interior wins."""
    # Sort with interior descending so the kept (first) duplicate is the
    # interior one; np.lexsort: last key is primary.
    order = np.lexsort((~interior, poly, cell_idx))
    cell_idx = cell_idx[order]
    poly = poly[order]
    interior = interior[order]
    keep = np.ones(len(cell_idx), dtype=bool)
    if len(cell_idx) > 1:
        keep[1:] = (cell_idx[1:] != cell_idx[:-1]) | (poly[1:] != poly[:-1])
    cell_idx = cell_idx[keep]
    poly = poly[keep]
    interior = interior[keep]
    offsets = np.zeros(n_cells + 1, np.int64)
    np.cumsum(np.bincount(cell_idx, minlength=n_cells), out=offsets[1:])
    return offsets, poly, interior


def build_supercovering(
    cell_ids: np.ndarray,
    poly_ids: np.ndarray,
    interior_flags: np.ndarray,
    extent: float,
) -> SuperCovering:
    """Merge (cell, polygon-reference) rows into a disjoint SuperCovering.

    This is the order-independent equivalent of the paper's Listing 1 (see
    module docstring). Inputs are one row per (cell, polygon) reference.
    """
    cell_ids = np.asarray(cell_ids, np.int64)
    poly_ids = np.asarray(poly_ids, np.int32)
    interior_flags = np.asarray(interior_flags, bool)
    if len(cell_ids) == 0:
        return SuperCovering(
            ids=np.empty(0, np.int64),
            ref_offsets=np.zeros(1, np.int64),
            ref_poly=np.empty(0, np.int32),
            ref_interior=np.empty(0, bool),
            extent=extent,
        )

    # 1. Distinct cells, refs grouped per cell ("already contains cell" case).
    uids, inv = np.unique(cell_ids, return_inverse=True)
    n = len(uids)
    levels = cellid.level_of(uids)

    # 2. Nearest ancestor among the distinct cells, per cell. Iterate over
    #    coarser levels from fine to coarse; the first hit is the nearest.
    present_levels = np.sort(np.unique(levels))
    ids_at = {int(lv): uids[levels == lv] for lv in present_levels}
    idx_at = {int(lv): np.flatnonzero(levels == lv) for lv in present_levels}
    nearest_anc = np.full(n, -1, np.int64)
    for lv in present_levels:
        finer = np.flatnonzero(levels > lv)
        if len(finer) == 0:
            continue
        cand = ids_at[int(lv)]
        par = cellid.parent(uids[finer], int(lv))
        pos = np.searchsorted(cand, par)
        ok = (pos < len(cand)) & (cand[np.minimum(pos, len(cand) - 1)] == par)
        # We iterate levels ascending, so a later (finer) ancestor overwrites
        # an earlier (coarser) one — the final value is the nearest ancestor.
        nearest_anc[finer[ok]] = idx_at[int(lv)][pos[ok]]

    # 3. Accumulated ancestor chains: refs(c) ∪ refs(ancestors of c). We
    #    realize this by attaching, to every output cell derived from c,
    #    the refs of c and of its (transitive) ancestors.
    #    anc_chain[i] = list of distinct-cell indices contributing refs to i.
    #    Computed by following nearest_anc links (levels strictly decrease,
    #    so chains terminate).
    # 4. Fragments. A cell without descendants survives unchanged. A cell
    #    with descendants is replaced by the quadtree tiling of itself minus
    #    its maximal proper descendants (the cells whose nearest ancestor it
    #    is; Figure 4's d = c1 - c2): its *path nodes* are the cells on the
    #    way down to each of those descendants, and the tiling is the
    #    children of the ancestor and of every path node above a
    #    descendant that are not path nodes themselves.
    desc = np.flatnonzero(nearest_anc >= 0)
    has_desc = np.zeros(n, dtype=bool)
    has_desc[nearest_anc[desc]] = True
    leaves = np.flatnonzero(~has_desc)
    out_cells = [uids[leaves]]
    out_src = [leaves]  # distinct-cell index whose refs apply
    if len(desc):
        anc = nearest_anc[desc]
        depth = levels[desc] - levels[anc]  # path nodes per descendant
        step = np.arange(int(depth.sum())) - np.repeat(np.cumsum(depth) - depth, depth)
        node_level = np.repeat(levels[anc], depth) + 1 + step
        nodes = cellid.parent(np.repeat(uids[desc], depth), node_level)
        # A path node has one ancestor (an ancestor nested in another lies
        # inside one of the outer one's maximal descendants), and a maximal
        # descendant is never on another's path (they are disjoint).
        path, first = np.unique(nodes, return_index=True)
        path_anc = np.repeat(anc, depth)[first]
        inner = node_level[first] < np.repeat(levels[desc], depth)[first]
        split = np.concatenate([np.flatnonzero(has_desc), path_anc[inner]])
        split_ids = np.concatenate([uids[has_desc], path[inner]])
        kids = cellid.children(split_ids).reshape(-1)
        pos = np.minimum(np.searchsorted(path, kids), len(path) - 1)
        frag = path[pos] != kids
        out_cells.append(kids[frag])
        out_src.append(np.repeat(split, 4)[frag])

    frag_ids = np.concatenate(out_cells)
    frag_src = np.concatenate(out_src)

    # 5. Attach refs: each fragment takes the refs of its source cell and of
    #    every ancestor of that source cell (chain via nearest_anc).
    ref_cell_rows: list[np.ndarray] = []
    ref_row_idx: list[np.ndarray] = []
    src = frag_src.copy()
    frag_no = np.arange(len(frag_ids))
    alive = np.ones(len(frag_ids), dtype=bool)
    while alive.any():
        ref_cell_rows.append(src[alive])
        ref_row_idx.append(frag_no[alive])
        nxt = nearest_anc[src[alive]]
        keep = nxt >= 0
        idx = frag_no[alive][keep]
        alive = np.zeros(len(frag_ids), dtype=bool)
        alive[idx] = True
        src[idx] = nxt[keep]

    contrib_src = np.concatenate(ref_cell_rows)  # distinct-cell idx
    contrib_frag = np.concatenate(ref_row_idx)  # fragment idx

    # Expand to individual refs: the refs of distinct cell u are the input
    # rows with inv == u, grouped once.
    in_order = np.argsort(inv, kind="stable")
    in_counts = np.bincount(inv, minlength=n)
    in_starts = np.concatenate([[0], np.cumsum(in_counts)])
    per_contrib = in_counts[contrib_src]
    rep_frag = np.repeat(contrib_frag, per_contrib)
    # Gather input-row indices for each contribution.
    base = np.repeat(in_starts[contrib_src], per_contrib)
    within = np.arange(len(rep_frag)) - np.repeat(
        np.concatenate([[0], np.cumsum(per_contrib)])[:-1], per_contrib
    )
    rows = in_order[base + within]

    ref_cell = rep_frag
    ref_p = poly_ids[rows]
    ref_i = interior_flags[rows]

    # 6. Sort fragments by id, dedup refs, build ragged arrays.
    sort_frag = np.argsort(frag_ids, kind="stable")
    rank = np.empty(len(frag_ids), np.int64)
    rank[sort_frag] = np.arange(len(frag_ids))
    ids_sorted = frag_ids[sort_frag]
    offsets, poly_out, int_out = _dedup_refs(
        rank[ref_cell], ref_p, ref_i, len(frag_ids)
    )
    sc = SuperCovering(
        ids=ids_sorted,
        ref_offsets=offsets,
        ref_poly=poly_out,
        ref_interior=int_out,
        extent=extent,
    )
    return sc


def merge_coverings(
    coverings: list[tuple[int, np.ndarray, np.ndarray]], extent: float
) -> SuperCovering:
    """Build a super covering from per-polygon coverings.

    ``coverings`` holds ``(poly_id, cell_ids, interior_flags)`` triples (one
    per polygon; boundary cells have flag False, interior cells True).
    """
    if not coverings:
        return build_supercovering(
            np.empty(0, np.int64), np.empty(0, np.int32), np.empty(0, bool), extent
        )
    cells = np.concatenate([c for _, c, _ in coverings])
    polys = np.concatenate(
        [np.full(len(c), pid, np.int32) for pid, c, _ in coverings]
    )
    flags = np.concatenate([f for _, _, f in coverings])
    return build_supercovering(cells, polys, flags, extent)
