"""Index training with historical points (paper §3.3.1).

The accurate join's cost is dominated by PIP tests on candidate hits. The
paper trains the index with historical data points: whenever a training
point hits an *expensive* cell (one referencing at least one candidate
hit), that cell is replaced by its four children, each re-classified
against the referenced polygons (fully inside -> true hit, intersecting ->
candidate, outside -> reference dropped). Popular areas therefore end up
with a finer grid and a higher solely-true-hit rate.

The paper processes training points sequentially; we process them in
*rounds* (probe all points, refine every expensive cell that was hit by one
level, repeat until no expensive cell is hit or limits are reached), which
produces the same popularity-adaptive refinement — a region keeps getting
refined for as many rounds as it keeps attracting training points (see
DESIGN.md §3). A memory budget (max cells) stops refinement like the
paper's "stop once a user-defined memory budget is exhausted".

Precision refinement (§3.2) reuses the same one-level split: it splits
every candidate cell coarser than the precision level until none is left.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core import cellid
from repro.core.covering import INTERIOR, classify_cells
from repro.core.supercovering import SuperCovering, build_supercovering
from repro.geometry.polygon import PolygonSet


@dataclass
class TrainingStats:
    rounds: int = 0
    cells_refined: int = 0
    n_cells_history: list[int] = field(default_factory=list)


def _split_expensive_cells(
    sc: SuperCovering, cell_idx: np.ndarray, pset: PolygonSet
) -> SuperCovering:
    """Replace each cell in ``cell_idx`` by its 4 re-classified children.

    True-hit references of a split cell are carried by the cell itself
    (stripped of its candidate refs); candidate references are re-evaluated
    per child. The merge step recombines everything into a disjoint set —
    the order-independent form of the paper's "remove original cell, insert
    descendant cells, update lookup table".
    """
    split_mask = np.zeros(sc.n_cells, dtype=bool)
    split_mask[cell_idx] = True
    counts = sc.ref_counts()
    ref_cell = np.repeat(np.arange(sc.n_cells), counts)  # owning cell per ref

    out_cells: list[np.ndarray] = []
    out_polys: list[np.ndarray] = []
    out_flags: list[np.ndarray] = []

    # 1. Refs of untouched cells — and the *true* refs of split cells (the
    #    split cell region is fully inside those polygons regardless of the
    #    split, so the parent cell carries them; the merge recombines).
    keep_ref = ~split_mask[ref_cell] | sc.ref_interior
    out_cells.append(np.repeat(sc.ids, counts)[keep_ref])
    out_polys.append(sc.ref_poly[keep_ref])
    out_flags.append(sc.ref_interior[keep_ref])

    # 2. Candidate refs of split cells: re-classify the 4 children against
    #    the referenced polygon, batched per polygon.
    cand_ref = split_mask[ref_cell] & ~sc.ref_interior
    cand_cells = np.repeat(sc.ids, counts)[cand_ref]
    cand_poly = sc.ref_poly[cand_ref]
    for p in np.unique(cand_poly):
        cells_p = cand_cells[cand_poly == p]
        kids = cellid.children(cells_p).ravel()
        cls = classify_cells(kids, pset.polygons[int(p)], sc.extent)
        hit = cls != 0
        if hit.any():
            out_cells.append(kids[hit])
            out_polys.append(np.full(int(hit.sum()), p, np.int32))
            out_flags.append(cls[hit] == INTERIOR)
    return build_supercovering(
        np.concatenate(out_cells),
        np.concatenate(out_polys),
        np.concatenate(out_flags),
        sc.extent,
    )


def train_index(
    sc: SuperCovering,
    pset: PolygonSet,
    train_x: np.ndarray,
    train_y: np.ndarray,
    max_rounds: int = 64,
    max_cells: int | None = None,
    max_level: int = cellid.MAX_LEVEL - 2,
) -> tuple[SuperCovering, TrainingStats]:
    """Adapt the super covering to the training point distribution.

    Returns the refined covering and per-round statistics. ``max_cells``
    is the paper's memory budget; ``max_level`` bounds refinement depth.
    """
    stats = TrainingStats(n_cells_history=[sc.n_cells])
    pt = cellid.cell_from_point(train_x, train_y, sc.extent)
    for _ in range(max_rounds):
        if max_cells is not None and sc.n_cells >= max_cells:
            break
        hit = cellid.locate(sc.ids, pt, np.searchsorted(sc.ids, pt))
        hit = hit[hit >= 0]
        if len(hit) == 0:
            break
        expensive = sc.candidate_mask()
        fine_enough = sc.levels() < max_level
        to_split = np.unique(hit)
        to_split = to_split[expensive[to_split] & fine_enough[to_split]]
        if len(to_split) == 0:
            break
        sc = _split_expensive_cells(sc, to_split, pset)
        stats.rounds += 1
        stats.cells_refined += int(len(to_split))
        stats.n_cells_history.append(sc.n_cells)
    return sc, stats


def refine_to_precision(
    sc: SuperCovering, pset: PolygonSet, precision_m: float
) -> SuperCovering:
    """Refine all boundary cells to the precision level (paper §3.2).

    Splits every cell with a candidate reference coarser than the minimum
    level for ``precision_m`` with training's one-level split, until none
    is left: children fully inside become true hits at their level,
    boundary children reach that level as candidates. Used when an
    existing (e.g. accurate-mode) covering must be upgraded to a precision
    guarantee; the approx build path constructs at precision directly.
    """
    target = cellid.min_level_for_precision(precision_m, sc.extent)
    while True:
        coarse = np.flatnonzero(sc.candidate_mask() & (sc.levels() < target))
        if len(coarse) == 0:
            return sc
        sc = _split_expensive_cells(sc, coarse, pset)
