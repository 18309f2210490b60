"""Tests for index training (§3.3.1)."""
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import synth_data as sd
from repro.core import cellid
from repro.core.join import build_index, compute_coverings, probe_batch
from repro.core.supercovering import build_supercovering, merge_coverings
from repro.core.covering import cover_polygons
from repro.core.training import train_index
from repro.geometry.polygon import Polygon, PolygonSet, point_in_polygon_set
from tests import covering_reference
from tests.covering_reference import INTERIOR, OUTSIDE
from tests.pip_helpers import vertices


@pytest.fixture(scope="module")
def neigh():
    return sd.polygon_dataset("neighborhoods", scale="test")


@pytest.fixture(scope="module")
def accurate_sc(neigh):
    n = len(neigh)
    # Job k is polygon k's covering, job n + k its interior covering.
    cells, _, offs = cover_polygons(
        neigh,
        np.tile(np.arange(n), 2),
        sd.EXTENT,
        np.repeat([16, 12], n),
        np.repeat([128, 256], n),
        np.repeat([True, False], n),
    )
    job = np.repeat(np.arange(2 * n), np.diff(offs))
    return build_supercovering(cells, job % n, job >= n, sd.EXTENT)


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

    def test_exhausted_budget_is_noop(self, accurate_sc, neigh):
        tx, ty = sd.taxi_points(1_000, seed=1)
        sc, stats = train_index(accurate_sc, neigh, tx, ty, max_cells=accurate_sc.n_cells)
        assert sc is accurate_sc and stats.rounds == 0

    def test_invalid_points_ignored(self, accurate_sc, neigh):
        """Points the join rejects (not finite, or outside the extent) do
        not train the index, although ``cell_from_point`` would clip them
        into border cells."""
        tx, ty = sd.taxi_points(2_000, seed=1)
        inv = np.array(
            [(-500.0, 10.0), (8692.0, 10.0), (10.0, -3000.0), (np.nan, 10.0), (1e12, 5.0),
             (-np.inf, 5.0)]
        )
        want, want_stats = train_index(accurate_sc, neigh, tx, ty)
        got, stats = train_index(
            accurate_sc, neigh, np.concatenate([tx, inv[:, 0]]), np.concatenate([ty, inv[:, 1]])
        )
        assert stats == want_stats
        assert_same(got, want)

    def test_training_converges(self, accurate_sc, neigh):
        """Training reaches a fixpoint: no training point hits an expensive
        cell below max_level."""
        tx, ty = sd.taxi_points(500, seed=2)
        sc, stats = train_index(accurate_sc, neigh, tx, ty, max_level=20)
        assert stats.rounds > 0
        pt = cellid.cell_from_point(tx, ty, sc.extent)
        hit = cellid.locate(sc.ids, pt, np.searchsorted(sc.ids, pt))
        hit = hit[hit >= 0]
        assert not np.any(sc.candidate_mask()[hit] & (sc.levels()[hit] < 20))


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
        cls = covering_reference.classify_pairs(kids, np.full(len(kids), p, np.int64), pset, sc.extent)
        hit = cls != OUTSIDE
        cells.append(kids[hit])
        polys.append(np.full(int(hit.sum()), p, np.int32))
        flags.append(cls[hit] == INTERIOR)
    return build_supercovering(
        np.concatenate(cells), np.concatenate(polys), np.concatenate(flags), sc.extent
    )


def by_rounds(sc, pset, pick):
    """The reference refinement: rounds of ``merge_split`` over every
    candidate cell that ``pick(sc)`` selects, until none is left. Returns
    the covering, the number of rounds and the cells split."""
    rounds = refined = 0
    while len(split := np.flatnonzero(sc.candidate_mask() & pick(sc))):
        sc = merge_split(sc, split, pset)
        rounds += 1
        refined += len(split)
    return sc, rounds, refined


def hit_by(tx, ty, max_level=cellid.MAX_LEVEL - 2):
    """``pick`` for training: cells below ``max_level`` a point hits.
    Only points the join accepts hit a cell: finite, in ``[0, EXTENT)``."""
    ok = (tx >= 0) & (tx < sd.EXTENT) & (ty >= 0) & (ty < sd.EXTENT)
    pt = cellid.cell_from_point(tx[ok], ty[ok], sd.EXTENT)

    def pick(sc):
        hit = cellid.locate(sc.ids, pt, np.searchsorted(sc.ids, pt))
        mask = np.zeros(sc.n_cells, dtype=bool)
        mask[hit[hit >= 0]] = True
        return mask & (sc.levels() < max_level)

    return pick


def assert_same(got, want):
    for field in ("ids", "ref_offsets", "ref_poly", "ref_interior"):
        np.testing.assert_array_equal(getattr(got, field), getattr(want, field))
        assert getattr(got, field).dtype == getattr(want, field).dtype


def assert_refinement_equals_rounds(sc, pset, tx, ty):
    """Returns the trained covering."""
    got, stats = train_index(sc, pset, tx, ty)
    want, rounds, refined = by_rounds(sc, pset, hit_by(tx, ty))
    assert_same(got, want)
    assert (stats.rounds, stats.cells_refined) == (rounds, refined)
    return got


@pytest.mark.parametrize("name", ["neighborhoods", "boroughs"])
def test_split_equals_merge(name):
    """One descent from the split cells equals rounds of "split every
    hit cell by one level, re-merge", array for array and with the same
    statistics."""
    pset = sd.polygon_dataset(name, scale="test")
    sc = merge_coverings(compute_coverings(pset, sd.EXTENT, "accurate"), sd.EXTENT)
    tx, ty = sd.taxi_points(10_000, seed=1)
    assert_refinement_equals_rounds(sc, pset, tx, ty)


@st.composite
def small_polygon_sets(draw):
    """One to four random triangles, 5 m to 1 km across, that may overlap,
    in a 2 km window."""
    x0 = draw(st.floats(0.0, sd.EXTENT - 2000.0))
    y0 = draw(st.floats(0.0, sd.EXTENT - 2000.0))
    polys = []
    for _ in range(draw(st.integers(1, 4))):
        size = draw(st.floats(5.0, 1000.0))
        ox, oy = draw(st.floats(0.0, 1000.0)), draw(st.floats(0.0, 1000.0))
        # One vertex in each of the lower-left, lower-right and top parts
        # of the square, so few triangles are near-degenerate.
        u = np.array(draw(st.lists(st.floats(0.0, 0.5), min_size=6, max_size=6)))
        u += [0.0, 0.5, 0.0, 0.0, 0.0, 0.5]
        u[2] *= 2
        poly = Polygon(x0 + ox + size * u[:3], y0 + oy + size * u[3:])
        assume(abs(poly.area()) > 1e-3 * size * size)
        polys.append(poly)
    return PolygonSet(polys), x0, y0


@given(small_polygon_sets(), st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_refinement_equals_rounds_on_random_polygons(polygons, seed):
    """On random small polygon sets the descent equals the round-by-round
    reference, and the trained exact join equals the untrained one, also
    for points on polygon vertices."""
    pset, x0, y0 = polygons
    sc = merge_coverings(compute_coverings(pset, sd.EXTENT, "accurate"), sd.EXTENT)
    g = np.random.default_rng(seed)
    # Uniform points, and points clustered around the polygons' vertices.
    vx, vy = vertices(pset)
    near = np.repeat(np.arange(len(vx)), 50)
    tx, ty = (
        np.concatenate([o + g.uniform(0, 2000, 200), v[near] + g.normal(0, 20, len(near))])
        for o, v in ((x0, vx), (y0, vy))
    )
    trained = assert_refinement_equals_rounds(sc, pset, tx, ty)
    qx = np.concatenate([x0 + g.uniform(0, 2000, 2000), vx])
    qy = np.concatenate([y0 + g.uniform(0, 2000, 2000), vy])
    joins = []
    for cov in (sc, trained):
        bundle = build_index(pset, sd.EXTENT, mode="accurate", precision_m=None, supercov=cov)
        rows, polys, _t, _s = probe_batch(bundle, qx, qy, exact=True)
        joins.append(set(zip(rows.tolist(), polys.tolist())))
    assert joins[0] == joins[1]


def test_build_has_one_classifier(monkeypatch):
    """Every build path classifies cells with the covering descent alone:
    the flat reference ``classify_pairs`` lives in the tests, no ``repro.``
    module holds it, and the builds run with it patched to raise."""

    def flat_classifier(*args):
        raise AssertionError("classify_pairs called by the build")

    monkeypatch.setattr(covering_reference, "classify_pairs", flat_classifier)
    pset = sd.polygon_dataset("neighborhoods", scale="test")
    build_index(pset, sd.EXTENT, mode="approx", precision_m=4.0)
    build_index(pset, sd.EXTENT, mode="accurate", precision_m=None)
    sc = merge_coverings(compute_coverings(pset, sd.EXTENT, "accurate"), sd.EXTENT)
    tx, ty = sd.taxi_points(2_000, seed=1)
    assert train_index(sc, pset, tx, ty)[1].rounds > 0
    loaded = [m for m in list(sys.modules.values()) if getattr(m, "__name__", "").startswith("repro.")]
    assert loaded and not any(hasattr(m, "classify_pairs") for m in loaded)
