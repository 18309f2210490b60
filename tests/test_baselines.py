"""Tests for the baseline structures: LB, GBT, RT, SI."""
import numpy as np
import pytest

from repro import synth_data as sd
from repro.core import cellid
from repro.core.act import build_act
from repro.core.covering import cover_polygons
from repro.core.supercovering import build_supercovering
from repro.baselines.btree import NODE_KEYS, build_btree
from repro.baselines.rtree import build_rtree, rtree_join
from repro.baselines.shapeindex import build_shapeindex
from repro.baselines.sorted_vector import build_sorted_vector
from repro.geometry.polygon import point_in_polygon_set


@pytest.fixture(scope="module")
def neigh():
    return sd.polygon_dataset("neighborhoods", scale="test")


@pytest.fixture(scope="module")
def neigh_sc(neigh):
    pids = np.arange(len(neigh))
    cells, flags, offs = cover_polygons(neigh, pids, sd.EXTENT, 10, np.inf, True)
    return build_supercovering(cells, np.repeat(pids, np.diff(offs)), flags, sd.EXTENT)


@pytest.fixture(scope="module")
def taxi():
    px, py = sd.taxi_points(30_000, seed=21)
    return px, py, cellid.cell_from_point(px, py, sd.EXTENT)


@pytest.fixture(scope="module")
def truth(neigh, taxi):
    px, py, _ = taxi
    pi, pg = point_in_polygon_set(px, py, neigh)
    return set(zip(pi.tolist(), pg.tolist()))


class TestSortedVector:
    def test_matches_act(self, neigh_sc, taxi):
        _px, _py, pt = taxi
        lb = build_sorted_vector(neigh_sc)
        act = build_act(neigh_sc, 4)
        np.testing.assert_array_equal(lb.probe(pt)[0], act.probe(pt)[0])

    def test_empty_index(self):
        from repro.core.supercovering import build_supercovering

        sc = build_supercovering(
            np.empty(0, np.int64), np.empty(0, np.int32), np.empty(0, bool), 1024.0
        )
        lb = build_sorted_vector(sc)
        e, _ = lb.probe(np.array([12345], np.int64))
        assert e[0] == 0

    def test_comparisons_logarithmic(self, neigh_sc, taxi):
        _px, _py, pt = taxi
        lb = build_sorted_vector(neigh_sc)
        _, comps = lb.probe(pt[:10])
        assert comps[0] == int(np.ceil(np.log2(neigh_sc.n_cells))) + 2

    def test_nbytes(self, neigh_sc):
        lb = build_sorted_vector(neigh_sc)
        assert lb.nbytes() >= neigh_sc.n_cells * 16  # ids + values


class TestBTree:
    def test_matches_sorted_vector(self, neigh_sc, taxi):
        _px, _py, pt = taxi
        bt = build_btree(neigh_sc)
        lb = build_sorted_vector(neigh_sc)
        np.testing.assert_array_equal(bt.probe(pt)[0], lb.probe(pt)[0])

    def test_matches_on_uniform(self, neigh_sc):
        px, py = sd.uniform_points(30_000, seed=22)
        pt = cellid.cell_from_point(px, py, sd.EXTENT)
        bt = build_btree(neigh_sc)
        lb = build_sorted_vector(neigh_sc)
        np.testing.assert_array_equal(bt.probe(pt)[0], lb.probe(pt)[0])

    def test_height_logarithmic(self, neigh_sc):
        bt = build_btree(neigh_sc)
        expect = int(np.ceil(np.log(neigh_sc.n_cells) / np.log(NODE_KEYS)))
        assert bt.n_levels in (expect, expect + 1)

    def test_node_accesses_equal_height(self, neigh_sc, taxi):
        _px, _py, pt = taxi
        bt = build_btree(neigh_sc)
        _, acc = bt.probe(pt[:5])
        assert np.all(acc == bt.n_levels)

    def test_small_tree_single_level(self):
        from repro.core.supercovering import build_supercovering

        ids = cellid.cell_from_xy(np.arange(8), np.arange(8), 6)
        sc = build_supercovering(
            ids, np.arange(8, dtype=np.int32), np.ones(8, bool), 1024.0
        )
        bt = build_btree(sc)
        assert bt.n_levels == 1
        e, _ = bt.probe(cellid.range_min(ids[3:4]))
        assert e[0] != 0

    def test_probe_extremes(self, neigh_sc):
        """Keys below the smallest / above the largest cell miss cleanly."""
        bt = build_btree(neigh_sc)
        e, _ = bt.probe(np.array([1, 2**61 - 1], np.int64))
        # Point ids outside every cell range must be sentinel (0) unless a
        # cell genuinely contains them.
        lb = build_sorted_vector(neigh_sc)
        np.testing.assert_array_equal(e, lb.probe(np.array([1, 2**61 - 1], np.int64))[0])


class TestRTree:
    def test_filter_candidates_superset(self, neigh, taxi, truth):
        px, py, _ = taxi
        rt = build_rtree(neigh)
        cp, cg, _acc = rt.query_points(px, py)
        cands = set(zip(cp.tolist(), cg.tolist()))
        assert truth <= cands  # MBR filter never loses a real pair

    def test_join_exact(self, neigh, taxi, truth):
        px, py, _ = taxi
        rt = build_rtree(neigh)
        rp, rg, stats = rtree_join(px, py, rt, neigh)
        assert set(zip(rp.tolist(), rg.tolist())) == truth
        assert stats["pip_tests"] >= len(truth)

    def test_more_pip_tests_than_truth(self, neigh, taxi, truth):
        """The classic filter&refine problem: every candidate needs a PIP
        test — many more than the true result (the paper's motivation)."""
        px, py, _ = taxi
        rt = build_rtree(neigh)
        _rp, _rg, stats = rtree_join(px, py, rt, neigh)
        assert stats["candidates"] > len(truth)

    def test_structure_bounds_nested(self, neigh):
        rt = build_rtree(neigh)
        for upper, lower in zip(rt.levels, rt.levels[1:]):
            for k in range(len(upper.bounds)):
                s, c = upper.child_start[k], upper.child_count[k]
                child = lower.bounds[s : s + c]
                assert (child[:, 0] >= upper.bounds[k, 0] - 1e-9).all()
                assert (child[:, 2] <= upper.bounds[k, 2] + 1e-9).all()

    def test_single_polygon(self):
        ps = sd.polygon_dataset("boroughs", scale="test")
        rt = build_rtree(ps)
        px, py = sd.taxi_points(1000, seed=23)
        rp, rg, _ = rtree_join(px, py, rt, ps)
        pi, pg = point_in_polygon_set(px, py, ps)
        assert set(zip(rp.tolist(), rg.tolist())) == set(zip(pi.tolist(), pg.tolist()))


class TestShapeIndex:
    @pytest.mark.parametrize("max_edges", [1, 10])
    def test_exact_join(self, neigh, taxi, truth, max_edges):
        px, py, _ = taxi
        si = build_shapeindex(neigh, sd.EXTENT, max_edges_per_cell=max_edges, max_level=12)
        sp, sg, _ = si.join(px, py)
        assert set(zip(sp.tolist(), sg.tolist())) == truth

    def test_finer_grid_fewer_edge_tests(self, neigh, taxi):
        """SI1 tests fewer edges per point than SI10 (paper §4.2)."""
        px, py, _ = taxi
        si1 = build_shapeindex(neigh, sd.EXTENT, 1, max_level=12)
        si10 = build_shapeindex(neigh, sd.EXTENT, 10, max_level=12)
        _, _, st1 = si1.join(px, py)
        _, _, st10 = si10.join(px, py)
        assert st1["edges_tested"] < st10["edges_tested"]
        assert len(si1.ids) > len(si10.ids)

    def test_true_hit_filtering_present(self, neigh, taxi):
        """Cells fully inside a polygon with no edges produce true hits."""
        px, py, _ = taxi
        si = build_shapeindex(neigh, sd.EXTENT, 10, max_level=12)
        _, _, st = si.join(px, py)
        assert st["true_hits"] > 0

    def test_points_off_grid_pair_with_nothing(self, neigh, taxi):
        """NaN, infinite and out-of-extent points would clip into a border
        cell; like ``probe_batch`` and ``rtree_join``, SI pairs them with
        nothing and leaves the valid points' pairs as they are."""
        e = sd.EXTENT
        bad = [(np.nan, 5), (np.inf, 5), (-np.inf, 5), (1, np.nan), (5, np.inf),
               (5, -np.inf), (-1, 5), (5, -0.5), (e, 5), (5, e), (e + 1, e + 1)]
        bx, by = np.array(bad, np.float64).T
        px, py = taxi[0][:2_000], taxi[1][:2_000]
        si = build_shapeindex(neigh, e, max_edges_per_cell=10, max_level=12)
        vp, vg, _ = si.join(px, py)
        sp, sg, _ = si.join(np.concatenate([bx, px]), np.concatenate([by, py]))
        got = set(zip(sp.tolist(), sg.tolist()))
        assert got == {(i + len(bad), g) for i, g in zip(vp.tolist(), vg.tolist())}

    def test_locate_partition(self, neigh):
        si = build_shapeindex(neigh, sd.EXTENT, 10, max_level=10)
        px, py = sd.uniform_points(5000, seed=24)
        cell_of = si.locate(cellid.cell_from_point(px, py, sd.EXTENT))
        assert (cell_of >= 0).all()  # the SI cells partition the region

