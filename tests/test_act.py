"""Tests for the Adaptive Cell Trie (ACT)."""
import numpy as np
import pytest

from repro import synth_data as sd
from repro.core import cellid
from repro.core.act import build_act
from repro.core.covering import cover_polygons
from repro.core.supercovering import build_supercovering
from repro.baselines.sorted_vector import build_sorted_vector


def make_sc(cells, refs, ext=1024.0):
    """(cell, [(poly, interior)...]) pairs -> SuperCovering via the merge."""
    cids, polys, ints = [], [], []
    for c, rl in zip(cells, refs):
        for p, f in rl:
            cids.append(c)
            polys.append(p)
            ints.append(f)
    return build_supercovering(
        np.asarray(cids, np.int64),
        np.asarray(polys, np.int32),
        np.asarray(ints, bool),
        ext,
    )


def cell(x, y, level, ext=1024.0):
    return int(cellid.cell_from_xy(np.array([x]), np.array([y]), level)[0])


def point_id(px, py, ext=1024.0):
    return cellid.cell_from_point(np.array([px]), np.array([py]), ext)


@pytest.fixture(scope="module")
def neigh_sc():
    ps = sd.polygon_dataset("neighborhoods", scale="test")
    pids = np.arange(len(ps))
    cells, flags, offs = cover_polygons(ps, pids, sd.EXTENT, 10, np.inf, True)
    return build_supercovering(cells, np.repeat(pids, np.diff(offs)), flags, sd.EXTENT)


class TestBuildBasics:
    def test_empty_covering(self):
        act = build_act(make_sc([], []), 4)
        entries, depths = act.probe(point_id(1, 1))
        assert entries[0] == 0

    @pytest.mark.parametrize("delta", [1, 2, 4])
    def test_single_cell(self, delta):
        c = cell(3, 5, 6)
        act = build_act(make_sc([c], [[(7, True)]]), delta)
        # A point inside the cell hits; a point outside misses.
        x0, y0, x1, y1 = cellid.cell_bounds(np.array([c]), 1024.0)
        hit, _ = act.probe(point_id((x0[0] + x1[0]) / 2, (y0[0] + y1[0]) / 2))
        miss, _ = act.probe(point_id(0.5, 0.5))
        rows, polys, trues = act.probe_refs(
            point_id((x0[0] + x1[0]) / 2, (y0[0] + y1[0]) / 2)
        )
        assert hit[0] != 0 and miss[0] == 0
        assert polys.tolist() == [7] and trues.tolist() == [True]

    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            build_act(make_sc([], []), 3)

    def test_rejects_root_cell(self):
        root = int(cellid.cell_from_xy(np.array([0]), np.array([0]), 0)[0])
        with pytest.raises(ValueError):
            build_act(make_sc([root], [[(1, True)]]), 4)

    @pytest.mark.parametrize("delta,fanout", [(1, 4), (2, 16), (4, 256)])
    def test_fanout(self, delta, fanout):
        act = build_act(make_sc([cell(0, 0, 5)], [[(1, True)]]), delta)
        assert act.fanout == fanout
        assert len(act.entries) == act.n_nodes * fanout


class TestKeyExtension:
    @pytest.mark.parametrize("level", [1, 2, 3, 4, 5, 6, 7])
    def test_odd_levels_fill_slot_ranges(self, level):
        """A cell whose level is not a multiple of delta fills 4**gap slots
        of one node (paper: key extension) — probes from anywhere inside
        the cell must hit it."""
        c = cell(1, 0, level)
        act = build_act(make_sc([c], [[(9, False)]]), 4)
        x0, y0, x1, y1 = cellid.cell_bounds(np.array([c]), 1024.0)
        g = np.random.default_rng(level)
        px = x0[0] + g.random(64) * (x1[0] - x0[0])
        py = y0[0] + g.random(64) * (y1[0] - y0[0])
        entries, _ = act.probe(cellid.cell_from_point(px, py, 1024.0))
        assert np.all(entries != 0)
        # Just outside the cell (cell(1, 0, level) never touches x=0, so
        # x0 - 1 stays inside the region and is not clipped): miss.
        outside, _ = act.probe(point_id(x0[0] - 1.0, (y0[0] + y1[0]) / 2))
        assert outside[0] == 0

    def test_no_level_stored_all_same_node_value(self):
        """All extended slots carry the identical tagged value."""
        c = cell(0, 0, 3)  # with delta=4, extends into 4 slots at level 4
        act = build_act(make_sc([c], [[(2, True)]]), 4)
        vals = act.entries[act.entries & 3 == 1]
        assert len(np.unique(vals)) == 1


class TestProbeSemantics:
    def test_at_most_one_cell_returned(self, neigh_sc):
        """Disjoint covering -> a probe resolves to exactly one entry."""
        act = build_act(neigh_sc, 4)
        px, py = sd.taxi_points(20_000, seed=3)
        entries, depths = act.probe(cellid.cell_from_point(px, py, sd.EXTENT))
        assert entries.shape == (20_000,)
        assert depths.shape == (20_000,)

    @pytest.mark.parametrize("delta", [1, 2, 4])
    def test_matches_sorted_vector_reference(self, neigh_sc, delta):
        """ACT probes return the same tagged entries as the binary-search
        reference for every point."""
        act = build_act(neigh_sc, delta)
        lb = build_sorted_vector(neigh_sc)
        px, py = sd.taxi_points(50_000, seed=4)
        pt = cellid.cell_from_point(px, py, sd.EXTENT)
        ea, _ = act.probe(pt)
        el, _ = lb.probe(pt)
        np.testing.assert_array_equal(ea, el)

    @pytest.mark.parametrize("delta", [1, 2, 4])
    def test_matches_reference_uniform(self, neigh_sc, delta):
        act = build_act(neigh_sc, delta)
        lb = build_sorted_vector(neigh_sc)
        px, py = sd.uniform_points(50_000, seed=5)
        pt = cellid.cell_from_point(px, py, sd.EXTENT)
        np.testing.assert_array_equal(act.probe(pt)[0], lb.probe(pt)[0])

    def test_probe_refs_roundtrip(self, neigh_sc):
        act = build_act(neigh_sc, 4)
        lb = build_sorted_vector(neigh_sc)
        px, py = sd.taxi_points(5_000, seed=6)
        pt = cellid.cell_from_point(px, py, sd.EXTENT)
        ra = act.probe_refs(pt)
        rl = lb.probe_refs(pt)
        sa = set(zip(ra[0].tolist(), ra[1].tolist(), ra[2].tolist()))
        sl = set(zip(rl[0].tolist(), rl[1].tolist(), rl[2].tolist()))
        assert sa == sl

    def test_depths_bounded_by_max_depth(self, neigh_sc):
        for delta in (1, 2, 4):
            act = build_act(neigh_sc, delta)
            px, py = sd.taxi_points(10_000, seed=7)
            _, depths = act.probe(cellid.cell_from_point(px, py, sd.EXTENT))
            assert depths.max() <= act.max_depth
            levels = neigh_sc.levels()
            assert act.max_depth == int(
                np.ceil(2 * levels.max() / act.bits_per_level) - 1
            )

    def test_larger_cells_found_at_smaller_depth(self):
        """Paper: larger cells are indexed closer to the root."""
        coarse = cell(0, 0, 2)  # level 2
        fine = cell(1023, 1023, 10, 1024.0)  # far corner, level 10
        fx0, fy0, fx1, fy1 = cellid.cell_bounds(np.array([fine]), 1024.0)
        act = build_act(make_sc([coarse, fine], [[(0, True)], [(1, False)]]), 1)
        _, d_coarse = act.probe(point_id(10, 10))
        _, d_fine = act.probe(point_id((fx0[0] + fx1[0]) / 2, (fy0[0] + fy1[0]) / 2))
        assert d_coarse[0] < d_fine[0]


class TestRootPrefix:
    def test_clustered_cells_get_prefix(self):
        """Cells all inside one deep subtree share a root prefix."""
        base = cell(100, 100, 10)
        kids = cellid.children(np.array([base]))[0]
        sc = make_sc([int(k) for k in kids], [[(i, True)] for i in range(4)])
        act = build_act(sc, 1)
        assert act.prefix_depth > 0

    def test_prefix_rejects_outside_points(self):
        base = cell(100, 100, 10)
        kids = cellid.children(np.array([base]))[0]
        sc = make_sc([int(k) for k in kids], [[(i, True)] for i in range(4)])
        act = build_act(sc, 1)
        entries, depths = act.probe(point_id(1000, 1000))
        assert entries[0] == 0 and depths[0] == -1

    def test_prefix_accepts_inside_points(self):
        base = cell(100, 100, 10)
        x0, y0, x1, y1 = cellid.cell_bounds(np.array([base]), 1024.0)
        kids = cellid.children(np.array([base]))[0]
        sc = make_sc([int(k) for k in kids], [[(i, True)] for i in range(4)])
        act = build_act(sc, 1)
        entries, _ = act.probe(point_id((x0[0] + x1[0]) / 2, (y0[0] + y1[0]) / 2))
        assert entries[0] != 0


class TestSizeAndStructure:
    def test_nbytes_counts_nodes_and_table(self, neigh_sc):
        act = build_act(neigh_sc, 4)
        assert act.nbytes() >= act.n_nodes * act.fanout * 8

    def test_higher_fanout_fewer_nodes(self, neigh_sc):
        n = {d: build_act(neigh_sc, d).n_nodes for d in (1, 2, 4)}
        assert n[1] > n[2] > n[4]

    def test_higher_fanout_shallower(self, neigh_sc):
        px, py = sd.taxi_points(10_000, seed=8)
        pt = cellid.cell_from_point(px, py, sd.EXTENT)
        avg = {}
        for d in (1, 2, 4):
            _, depths = build_act(neigh_sc, d).probe(pt)
            avg[d] = depths[depths >= 0].mean()
        assert avg[1] > avg[2] > avg[4]

    def test_multi_polygon_cells_resolve(self):
        """Cells with 1, 2, and 3+ refs all decode through the trie."""
        cells = [cell(0, 0, 4), cell(1, 0, 4), cell(2, 0, 4)]
        refs = [
            [(1, True)],
            [(1, False), (2, True)],
            [(1, True), (2, True), (3, False), (4, False)],
        ]
        act = build_act(make_sc(cells, refs), 4)
        for c, rl in zip(cells, refs):
            x0, y0, x1, y1 = cellid.cell_bounds(np.array([c]), 1024.0)
            _, polys, trues = act.probe_refs(
                point_id((x0[0] + x1[0]) / 2, (y0[0] + y1[0]) / 2)
            )
            assert set(zip(polys.tolist(), trues.tolist())) == set(rl)
