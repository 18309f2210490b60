"""Tests for index training (§3.3.1) and precision refinement (§3.2)."""
import numpy as np
import pytest

from repro import synth_data as sd
from repro.core import cellid
from repro.core.join import build_index, compute_coverings, probe_batch
from repro.core.supercovering import build_supercovering, merge_coverings
from repro.core.covering import (
    INTERIOR,
    OUTSIDE,
    budgeted_covering,
    budgeted_interior_covering,
    classify_cells,
    classify_pairs,
)
from repro.core.training import _split_expensive_cells, refine_to_precision, train_index
from repro.geometry.polygon import point_in_polygon_set


@pytest.fixture(scope="module")
def neigh():
    return sd.polygon_dataset("neighborhoods", scale="test")


@pytest.fixture(scope="module")
def accurate_sc(neigh):
    covs = []
    for pid, poly in enumerate(neigh.polygons):
        c = budgeted_covering(poly, sd.EXTENT, 128, 16)
        i = budgeted_interior_covering(poly, sd.EXTENT, 256, 12)
        covs.append(
            (
                pid,
                np.concatenate([c, i]),
                np.concatenate([np.zeros(len(c), bool), np.ones(len(i), bool)]),
            )
        )
    return merge_coverings(covs, sd.EXTENT)


def sth_and_pips(sc, neigh, px, py):
    bundle = build_index(
        neigh, sd.EXTENT, mode="accurate", precision_m=None, supercov=sc
    )
    _r, _p, _t, stats = probe_batch(bundle, px, py, exact=True)
    return 100.0 * stats["sth_points"] / stats["points"], stats["pip_tests"], bundle


class TestTraining:
    @pytest.fixture(scope="class")
    def trained(self, accurate_sc, neigh):
        tx, ty = sd.taxi_points(10_000, seed=1)
        return train_index(accurate_sc, neigh, tx, ty)

    def test_remains_disjoint(self, trained):
        sc, _ = trained
        assert sc.validate_disjoint()

    def test_grows_cells(self, accurate_sc, trained):
        sc, stats = trained
        assert sc.n_cells > accurate_sc.n_cells
        assert stats.rounds > 0
        assert stats.cells_refined > 0
        assert stats.n_cells_history[0] == accurate_sc.n_cells

    def test_increases_sth(self, accurate_sc, trained, neigh):
        """Training raises the solely-true-hit rate (paper Table 7)."""
        sc, _ = trained
        qx, qy = sd.taxi_points(10_000, seed=7)
        sth0, _, _ = sth_and_pips(accurate_sc, neigh, qx, qy)
        sth1, _, _ = sth_and_pips(sc, neigh, qx, qy)
        assert sth1 > sth0 + 5

    def test_reduces_pip_tests(self, accurate_sc, trained, neigh):
        """Training reduces PIP tests (paper: >97% reduction at 1M)."""
        sc, _ = trained
        qx, qy = sd.taxi_points(10_000, seed=7)
        _, p0, _ = sth_and_pips(accurate_sc, neigh, qx, qy)
        _, p1, _ = sth_and_pips(sc, neigh, qx, qy)
        assert p1 < p0 / 2

    def test_join_still_exact(self, trained, neigh):
        sc, _ = trained
        qx, qy = sd.taxi_points(5_000, seed=8)
        _, _, bundle = sth_and_pips(sc, neigh, qx, qy)
        rows, polys, _t, _s = probe_batch(bundle, qx, qy, exact=True)
        pi, pg = point_in_polygon_set(qx, qy, neigh)
        assert set(zip(rows.tolist(), polys.tolist())) == set(
            zip(pi.tolist(), pg.tolist())
        )

    def test_more_training_points_more_refinement(self, accurate_sc, neigh):
        sizes = {}
        for n in (1_000, 8_000):
            tx, ty = sd.taxi_points(n, seed=1)
            sc, _ = train_index(accurate_sc, neigh, tx, ty)
            sizes[n] = sc.n_cells
        assert sizes[8_000] > sizes[1_000]

    def test_memory_budget_stops_training(self, accurate_sc, neigh):
        tx, ty = sd.taxi_points(10_000, seed=1)
        budget = accurate_sc.n_cells + 500
        sc, _ = train_index(accurate_sc, neigh, tx, ty, max_cells=budget)
        # One round may overshoot, but growth stops right after the budget.
        sc2, _ = train_index(accurate_sc, neigh, tx, ty)
        assert sc.n_cells < sc2.n_cells

    def test_max_rounds_zero_is_noop(self, accurate_sc, neigh):
        tx, ty = sd.taxi_points(1_000, seed=1)
        sc, stats = train_index(accurate_sc, neigh, tx, ty, max_rounds=0)
        assert sc.n_cells == accurate_sc.n_cells and stats.rounds == 0

    def test_training_converges(self, accurate_sc, neigh):
        """With unbounded rounds, training reaches a fixpoint where no
        training point hits an expensive cell below max_level."""
        tx, ty = sd.taxi_points(500, seed=2)
        sc, stats = train_index(accurate_sc, neigh, tx, ty, max_rounds=1000)
        assert stats.rounds < 1000


class TestRefineToPrecision:
    def test_precision_guarantee(self, accurate_sc, neigh):
        """After refinement, every candidate cell is at or below the level
        implied by the precision bound."""
        for precision in (60.0, 15.0):
            sc = refine_to_precision(accurate_sc, neigh, precision)
            target = cellid.min_level_for_precision(precision, sd.EXTENT)
            cand_levels = sc.levels()[sc.candidate_mask()]
            assert np.all(cand_levels >= target)
            assert sc.validate_disjoint()

    def test_refined_approx_join_within_bound(self, accurate_sc, neigh):
        """An approx join over the refined covering is a superset of the
        truth whose false positives are within the precision bound — the
        same guarantee the direct precision build provides (§3.2)."""
        from repro.geometry.polygon import point_to_polygon_distance

        sc = refine_to_precision(accurate_sc, neigh, 15.0)
        bundle = build_index(
            neigh, sd.EXTENT, mode="approx", precision_m=15.0, supercov=sc
        )
        px, py = sd.taxi_points(5_000, seed=9)
        rows, polys, _t, _s = probe_batch(bundle, px, py, exact=False)
        got = set(zip(rows.tolist(), polys.tolist()))
        pi, pg = point_in_polygon_set(px, py, neigh)
        truth = set(zip(pi.tolist(), pg.tolist()))
        assert truth <= got
        for pid, poly in got - truth:
            d = point_to_polygon_distance(
                px[pid : pid + 1], py[pid : pid + 1], neigh.polygons[poly]
            )[0]
            assert d <= 15.0

    def test_refined_join_exact_when_refine_applied(self, accurate_sc, neigh):
        sc = refine_to_precision(accurate_sc, neigh, 15.0)
        bundle = build_index(
            neigh, sd.EXTENT, mode="accurate", precision_m=None, supercov=sc
        )
        qx, qy = sd.taxi_points(5_000, seed=10)
        rows, polys, _t, stats = probe_batch(bundle, qx, qy, exact=True)
        pi, pg = point_in_polygon_set(qx, qy, neigh)
        assert set(zip(rows.tolist(), polys.tolist())) == set(
            zip(pi.tolist(), pg.tolist())
        )

    def test_already_fine_unchanged(self, accurate_sc, neigh):
        """A covering already at (or finer than) the precision level comes
        back unchanged."""
        fine = refine_to_precision(accurate_sc, neigh, 15.0)
        for precision in (15.0, 60.0):
            again = refine_to_precision(fine, neigh, precision)
            for name in ("ids", "ref_offsets", "ref_poly", "ref_interior"):
                np.testing.assert_array_equal(getattr(again, name), getattr(fine, name))

    def test_refinement_grows_cells(self, accurate_sc, neigh):
        sc = refine_to_precision(accurate_sc, neigh, 15.0)
        assert sc.n_cells > accurate_sc.n_cells


def merge_split(sc, cell_idx, pset):
    """What splitting ``cell_idx`` means: the merge of the untouched cells'
    refs, the split cells' true refs, and the 4 children of every
    candidate ref of a split cell, re-classified against its polygon."""
    split = np.zeros(sc.n_cells, dtype=bool)
    split[cell_idx] = True
    counts = sc.ref_counts()
    ref_ids = np.repeat(sc.ids, counts)
    ref_split = np.repeat(split, counts)
    keep = ~ref_split | sc.ref_interior
    cells, polys, flags = [ref_ids[keep]], [sc.ref_poly[keep]], [sc.ref_interior[keep]]
    cand = ref_split & ~sc.ref_interior
    for p in np.unique(sc.ref_poly[cand]):
        kids = cellid.children(ref_ids[cand & (sc.ref_poly == p)]).ravel()
        cls = classify_cells(kids, pset.polygons[int(p)], sc.extent)
        hit = cls != OUTSIDE
        cells.append(kids[hit])
        polys.append(np.full(int(hit.sum()), p, np.int32))
        flags.append(cls[hit] == INTERIOR)
    return build_supercovering(
        np.concatenate(cells), np.concatenate(polys), np.concatenate(flags), sc.extent
    )


@pytest.mark.parametrize("name", ["neighborhoods", "boroughs"])
def test_split_equals_merge(name):
    """The splice equals re-merging, array for array, for random splits.
    Each split includes cells with true refs none of whose children keeps
    a candidate ref: those stay whole."""
    pset = sd.polygon_dataset(name, scale="test")
    sc = merge_coverings(compute_coverings(pset, sd.EXTENT, "accurate"), sd.EXTENT)
    ref_cell = np.repeat(np.arange(sc.n_cells), sc.ref_counts())
    cand = np.flatnonzero(~sc.ref_interior)
    kids = cellid.children(sc.ids[ref_cell[cand]]).reshape(-1)
    cls = classify_pairs(kids, np.repeat(sc.ref_poly[cand], 4), pset, sc.extent)
    keeps_cand = np.zeros(sc.n_cells, dtype=bool)
    keeps_cand[ref_cell[cand][(cls.reshape(-1, 4) != OUTSIDE).any(axis=1)]] = True
    has_true = np.bincount(ref_cell[sc.ref_interior], minlength=sc.n_cells) > 0
    stays_whole = np.flatnonzero(sc.candidate_mask() & has_true & ~keeps_cand)
    assert len(stays_whole) > 0
    rng = np.random.default_rng(5)
    for size in (1, sc.n_cells // 50, sc.n_cells // 3):
        idx = np.union1d(
            rng.choice(sc.n_cells, size, replace=False), rng.choice(stays_whole, 3)
        )
        got = _split_expensive_cells(sc, idx, pset)
        want = merge_split(sc, idx, pset)
        for field in ("ids", "ref_offsets", "ref_poly", "ref_interior"):
            np.testing.assert_array_equal(getattr(got, field), getattr(want, field))
            assert getattr(got, field).dtype == getattr(want, field).dtype
