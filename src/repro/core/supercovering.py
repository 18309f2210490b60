"""Super covering: merge per-polygon coverings into one disjoint cell set.

Implements the paper's Listing 1 with the precision-preserving conflict
resolution of §3.1.1 / Figure 4: when an ancestor cell ``c1`` and a
descendant cell ``c2`` both occur, the result stores ``c2`` and the
difference ``d = c1 - c2`` (as quadtree cells), copying ``c1``'s polygon
references onto both. Identical cells merge their reference lists.

Listing-1 insertion in any order ends with the coarsest quadtree tiling of
the input cells' union in which every input cell is a union of output
cells, and gives each output cell the references of every input cell that
contains it. We build that result directly. Quadtree cells nest or are
disjoint, and each is a contiguous curve range (``cellid.range_min`` ..
``range_max``), so the merge is three array passes: the *roots* (a sort
and a running maximum find the coarsest input cell containing each one),
the *leaves and fragments* (every ancestor of an input cell below its root
is split, Figure 4's ``d = c1 - c2``) and the *references* (two
``searchsorted`` calls find the output cells inside each input row's
range). Per-polygon reference lists are deduplicated with interior=True
taking precedence (a cell known to be fully inside a polygon is a true hit
even if a coarser boundary cell also referenced that polygon).

The resulting cells are **disjoint**, so an index lookup returns at most
one cell — the property ACT's tagged pointer-or-value slots rely on.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import cellid
from repro.geometry.polygon import _ranges


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

    # 1. Roots: in (range_min, level) order a cell is nested iff an
    #    earlier range reaches it, and its root is the last cell up to it
    #    that is not nested.
    uids = np.unique(cell_ids)
    levels = cellid.level_of(uids)
    lo = cellid.range_min(uids)
    order = np.lexsort((levels, lo))
    reach = np.maximum.accumulate(cellid.range_max(uids[order]))
    top = np.ones(len(uids), dtype=bool)
    top[1:] = reach[:-1] < lo[order][1:]
    root_level = np.empty_like(levels)
    root_level[order] = levels[order][
        np.maximum.accumulate(np.where(top, np.arange(len(uids)), 0))
    ]

    # 2. Split every strict ancestor of an input cell up to its root; the
    #    output is every input cell or child of a split cell not split.
    depth = levels - root_level
    split = np.unique(
        cellid.parent(np.repeat(uids, depth), _ranges(root_level, depth))
    )
    kids = cellid.children(split).reshape(-1)
    ids = np.setdiff1d(np.union1d(uids, kids), split, assume_unique=True)

    # 3. References: each input row's go to the output cells in its range.
    a = np.searchsorted(ids, cellid.range_min(cell_ids))
    b = np.searchsorted(ids, cellid.range_max(cell_ids), side="right")
    rows = np.repeat(np.arange(len(cell_ids)), b - a)
    offsets, poly_out, int_out = _dedup_refs(
        _ranges(a, b - a), poly_ids[rows], interior_flags[rows], len(ids)
    )
    return SuperCovering(
        ids=ids,
        ref_offsets=offsets,
        ref_poly=poly_out,
        ref_interior=int_out,
        extent=extent,
    )


def merge_coverings(
    rows: tuple[np.ndarray, np.ndarray, np.ndarray], extent: float
) -> SuperCovering:
    """Build a super covering from flat covering rows
    ``(cell_ids, poly_ids, interior_flags)`` (``join.compute_coverings``)."""
    return build_supercovering(*rows, extent)
