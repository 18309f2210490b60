"""Index training with historical points (paper §3.3.1).

The accurate join's cost is dominated by PIP tests on candidate hits. The
paper trains the index with historical data points: whenever a training
point hits an *expensive* cell (one referencing at least one candidate
hit), that cell is replaced by its four children, each re-classified
against the referenced polygons (fully inside -> true hit, intersecting ->
candidate, outside -> reference dropped). Popular areas therefore end up
with a finer grid and a higher solely-true-hit rate.

The paper processes training points sequentially. We run the covering
descent (``covering._walk``) from every expensive cell a training point
hits: a boundary child splits again while it holds a training point, so a
region is refined for as long as it keeps attracting training points. The
result equals rounds of "probe all points, split every hit expensive cell
by one level" (DESIGN.md §3), with children classified against their
parent's clipped edges and one merge at the end. A memory budget (max
cells) stops refinement like the paper's "stop once a user-defined memory
budget is exhausted". Precision refinement (§3.2) needs no pass of its
own: the approximate build covers at the precision level directly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import cellid
from repro.core.covering import _clipped_frontier, _descend, _walk
from repro.core.supercovering import SuperCovering, build_supercovering
from repro.geometry.polygon import PolygonSet


@dataclass
class TrainingStats:
    rounds: int = 0  # levels split, one round of one-level splits each
    cells_refined: int = 0  # distinct cells split, summed over rounds


def train_index(
    sc: SuperCovering,
    pset: PolygonSet,
    train_x: np.ndarray,
    train_y: np.ndarray,
    max_cells: int | None = None,
    max_level: int = cellid.MAX_LEVEL - 2,
) -> tuple[SuperCovering, TrainingStats]:
    """Adapt the super covering to the training point distribution.

    Returns the refined covering and its statistics. ``max_level`` bounds
    refinement depth. Every candidate cell below ``max_level`` that holds
    a training point is split, and so is every boundary child that does.

    The split cells' candidate references are the descent's jobs: one
    clip and centre test per (cell, polygon), then one level of
    ``covering._descend`` for all of them. Each further level emits the
    interior children as true references and splits the selected boundary
    children; the others stay candidates. The result is one
    ``build_supercovering`` over the references of cells kept whole, the
    split cells' true references and the emitted cells.

    ``max_cells`` is the paper's memory budget, checked before each level
    against the cells held: those kept whole, the (cell, polygon) rows
    emitted and the frontier's rows. Once reached, the frontier's boundary
    cells stay candidates.

    Training points the join would reject (``cellid.in_extent``) are
    ignored.
    """
    max_cells = np.inf if max_cells is None else max_cells
    ok = cellid.in_extent(train_x, train_y, sc.extent)
    pt = np.sort(cellid.cell_from_point(train_x[ok], train_y[ok], sc.extent))

    def splits(cells):
        # Cells below max_level that hold a training point.
        a = np.searchsorted(pt, cellid.range_min(cells))
        b = np.searchsorted(pt, cellid.range_max(cells), side="right")
        return (b > a) & (cellid.level_of(cells) < max_level)

    split = sc.candidate_mask() & splits(sc.ids)
    n_split = np.count_nonzero(split)
    if n_split == 0 or sc.n_cells >= max_cells:
        return sc, TrainingStats()
    stats, held = TrainingStats(1, n_split), sc.n_cells - n_split
    ref_split = np.repeat(split, sc.ref_counts())
    ref_ids = np.repeat(sc.ids, sc.ref_counts())
    cand = np.flatnonzero(ref_split & ~sc.ref_interior)
    polys = sc.ref_poly[cand].astype(np.int64)
    jobs = np.arange(len(cand))
    f = _clipped_frontier(ref_ids[cand], jobs, polys, pset, sc.extent)
    f = _descend(f, jobs, polys, pset, sc.extent)

    def rule(f, interior):
        nonlocal held
        room = held + np.count_nonzero(interior | f.boundary) < max_cells
        deeper = f.boundary & splits(f.cells) & room
        held += np.count_nonzero(interior | f.boundary & ~deeper)
        stats.rounds += int(deeper.any())
        stats.cells_refined += len(np.unique(f.cells[deeper]))
        return deeper, f.boundary & ~deeper

    cells, job, flags = _walk(f, polys, pset, sc.extent, rule)
    keep = ~ref_split | sc.ref_interior
    return build_supercovering(
        np.concatenate([ref_ids[keep], cells]),
        np.concatenate([sc.ref_poly[keep], polys[job]]),
        np.concatenate([sc.ref_interior[keep], flags]),
        sc.extent,
    ), stats
