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
from repro.core.covering import INTERIOR, OUTSIDE, classify_pairs
from repro.core.supercovering import SuperCovering
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

    Every candidate reference of a split cell is re-classified on the 4
    children, all (child, polygon) pairs in one pass: fully inside -> true
    hit, intersecting -> candidate, outside -> dropped. A child carries the
    parent's true references plus the candidate references it keeps; a
    child with no reference is dropped, and a cell none of whose children
    keeps a candidate reference stays whole with its true references only.
    The children are spliced into the sorted covering in the parent's
    place, which is the paper's "remove original cell, insert descendant
    cells, update lookup table". The result equals ``build_supercovering``
    over the untouched cells' references, the split cells' true references
    and the children's references, the order-independent form of the same
    update.
    """
    n = sc.n_cells
    split = np.zeros(n, dtype=bool)
    split[cell_idx] = True
    ref_cell = np.repeat(np.arange(n), sc.ref_counts())
    cand = np.flatnonzero(split[ref_cell] & ~sc.ref_interior)
    kid_poly = np.repeat(sc.ref_poly[cand], 4)
    cls = classify_pairs(
        cellid.children(sc.ids[ref_cell[cand]]).reshape(-1), kid_poly, pset, sc.extent
    )
    hit = np.flatnonzero(cls != OUTSIDE)

    # Output cells, keyed 4 * i + k: child k of split cell i, or cell i
    # itself (k = 0) when it stays whole. Keys follow curve order.
    hit_key = 4 * ref_cell[cand][hit // 4] + hit % 4
    to_kids = np.zeros(n, dtype=bool)
    to_kids[hit_key // 4] = True
    has_true = np.bincount(ref_cell[sc.ref_interior], minlength=n) > 0
    out = np.zeros((n, 4), dtype=bool)
    out.reshape(-1)[hit_key] = True  # children that keep a candidate ref
    out[to_kids & has_true] = True  # all 4 under a parent's true refs
    out[:, 0] |= ~to_kids & (~split | has_true)  # cells kept whole
    keys = np.flatnonzero(out.reshape(-1))
    ids = sc.ids[keys // 4]
    kid = to_kids[keys // 4]
    ids[kid] = cellid.children(ids[kid])[np.arange(int(kid.sum())), keys[kid] % 4]

    # References: those of cells kept whole (already in (cell, poly)
    # order), and the children's, sorted and inserted in key order.
    whole = ~to_kids[ref_cell] & (~split[ref_cell] | sc.ref_interior)
    true = np.flatnonzero(to_kids[ref_cell] & sc.ref_interior)
    new_key = np.concatenate(
        [(4 * ref_cell[true][:, None] + np.arange(4)).reshape(-1), hit_key]
    )
    new_poly = np.concatenate([np.repeat(sc.ref_poly[true], 4), kid_poly[hit]])
    new_int = np.concatenate([np.ones(4 * len(true), bool), cls[hit] == INTERIOR])
    order = np.lexsort((new_poly, new_key))
    old_key = 4 * ref_cell[whole]
    at = np.searchsorted(old_key, new_key[order])
    counts = np.bincount(np.concatenate([old_key, new_key]), minlength=4 * n)[keys]
    return SuperCovering(
        ids=ids,
        ref_offsets=np.append(0, np.cumsum(counts)),
        ref_poly=np.insert(sc.ref_poly[whole], at, new_poly[order]),
        ref_interior=np.insert(sc.ref_interior[whole], at, new_int[order]),
        extent=sc.extent,
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
    # Sorted needles make each round's binary searches cheap.
    pt = np.sort(cellid.cell_from_point(train_x, train_y, sc.extent))
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
