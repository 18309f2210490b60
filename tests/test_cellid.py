"""Unit tests for the quadtree cell-id substrate (S2 substitute)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import cellid


class TestInterleave:
    def test_zero(self):
        assert cellid.interleave(np.array([0]), np.array([0]))[0] == 0

    def test_x_in_high_bit(self):
        # x=1,y=0 -> bit pattern 10 = 2; x=0,y=1 -> 01 = 1.
        assert cellid.interleave(np.array([1]), np.array([0]))[0] == 2
        assert cellid.interleave(np.array([0]), np.array([1]))[0] == 1

    def test_roundtrip_small(self):
        x = np.arange(64)
        y = np.arange(64)[::-1]
        pos = cellid.interleave(x, y)
        rx, ry = cellid.deinterleave(pos)
        np.testing.assert_array_equal(rx, x)
        np.testing.assert_array_equal(ry, y)

    @given(
        st.lists(st.integers(0, 2**30 - 1), min_size=1, max_size=50),
        st.lists(st.integers(0, 2**30 - 1), min_size=1, max_size=50),
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, xs, ys):
        n = min(len(xs), len(ys))
        x = np.asarray(xs[:n], np.int64)
        y = np.asarray(ys[:n], np.int64)
        pos = cellid.interleave(x, y)
        rx, ry = cellid.deinterleave(pos)
        np.testing.assert_array_equal(rx, x)
        np.testing.assert_array_equal(ry, y)

    def test_order_preserving_per_axis(self):
        # Morton codes grow with either coordinate.
        x = np.array([3, 4])
        y = np.array([5, 5])
        pos = cellid.interleave(x, y)
        assert pos[0] < pos[1]


class TestCellIds:
    def test_root_cell(self):
        root = cellid.cell_from_xy(np.array([0]), np.array([0]), 0)[0]
        assert root == 1 << 60
        assert cellid.level_of(np.array([root]))[0] == 0

    def test_leaf_level(self):
        leaf = cellid.cell_from_xy(np.array([0]), np.array([0]), cellid.MAX_LEVEL)
        assert cellid.level_of(leaf)[0] == cellid.MAX_LEVEL
        assert cellid.lsb_of(leaf)[0] == 1

    @pytest.mark.parametrize("level", [1, 2, 5, 12, 22, 30])
    def test_level_roundtrip(self, level):
        n = min(1 << level, 16)
        x = np.arange(n, dtype=np.int64)
        ids = cellid.cell_from_xy(x, x[::-1].copy(), level)
        np.testing.assert_array_equal(cellid.level_of(ids), level)

    def test_level_out_of_range(self):
        with pytest.raises(ValueError):
            cellid.cell_from_xy(np.array([0]), np.array([0]), 31)

    def test_distinct_ids_per_level(self):
        x, y = np.meshgrid(np.arange(8), np.arange(8))
        ids = cellid.cell_from_xy(x.ravel(), y.ravel(), 3)
        assert len(np.unique(ids)) == 64

    def test_sentinel_bit(self):
        ids = cellid.cell_from_xy(np.array([5]), np.array([9]), 7)
        # Trailing bit pattern: exactly one sentinel below the path.
        lsb = cellid.lsb_of(ids)[0]
        assert lsb == 1 << (2 * (cellid.MAX_LEVEL - 7))


class TestHierarchy:
    def test_parent_contains_child(self):
        ids = cellid.cell_from_xy(np.array([100]), np.array([200]), 10)
        for lv in range(10):
            par = cellid.parent(ids, lv)
            assert cellid.level_of(par)[0] == lv
            assert cellid.contains(par, ids)[0]

    def test_children_partition_parent(self):
        par = cellid.cell_from_xy(np.array([3]), np.array([1]), 2)
        kids = cellid.children(par)[0]
        assert len(np.unique(kids)) == 4
        assert np.all(cellid.level_of(kids) == 3)
        assert cellid.contains(np.repeat(par, 4), kids).all()
        # Children ranges tile the parent's range exactly.
        assert cellid.range_min(kids).min() == cellid.range_min(par)[0]
        assert cellid.range_max(kids).max() == cellid.range_max(par)[0]
        rmins = np.sort(cellid.range_min(kids))
        rmaxs = np.sort(cellid.range_max(kids))
        assert np.all(rmins[1:] == rmaxs[:-1] + 2)

    def test_children_parent_roundtrip(self):
        par = cellid.cell_from_xy(np.array([77]), np.array([13]), 9)
        kids = cellid.children(par)[0]
        np.testing.assert_array_equal(cellid.parent(kids, 9), np.repeat(par, 4))

    def test_prefix_property(self):
        """Children share the parent's path prefix — the ACT requirement."""
        par = cellid.cell_from_xy(np.array([42]), np.array([17]), 8)
        pbits = cellid.path_bits(par)[0]
        for kid in cellid.children(par)[0]:
            kbits = cellid.path_bits(np.array([kid]))[0]
            assert (kbits >> (60 - 16)) == (pbits >> (60 - 16))

    def test_contains_is_range_check(self):
        a = cellid.cell_from_xy(np.array([0]), np.array([0]), 2)
        unrelated = cellid.cell_from_xy(np.array([3]), np.array([3]), 2)
        assert not cellid.contains(a, unrelated)[0]
        assert cellid.contains(a, a)[0]  # a cell contains itself


class TestGeometry:
    def test_cell_bounds_root(self):
        root = cellid.cell_from_xy(np.array([0]), np.array([0]), 0)
        x0, y0, x1, y1 = cellid.cell_bounds(root, 1024.0)
        assert (x0[0], y0[0], x1[0], y1[0]) == (0.0, 0.0, 1024.0, 1024.0)

    def test_cell_bounds_match_grid(self):
        ids = cellid.cell_from_xy(np.array([3]), np.array([5]), 4)
        x0, y0, x1, y1 = cellid.cell_bounds(ids, 1600.0)
        side = 1600.0 / 16
        assert x0[0] == pytest.approx(3 * side)
        assert y0[0] == pytest.approx(5 * side)
        assert x1[0] - x0[0] == pytest.approx(side)

    def test_point_to_cell_to_bounds(self):
        px = np.array([100.5, 900.0, 0.0])
        py = np.array([7.25, 450.0, 1023.999])
        ids = cellid.cell_from_point(px, py, 1024.0)
        x0, y0, x1, y1 = cellid.cell_bounds(ids, 1024.0)
        assert np.all((px >= x0) & (px <= x1) & (py >= y0) & (py <= y1))

    def test_point_cell_inside_every_ancestor(self):
        px, py = np.array([512.3]), np.array([100.9])
        leaf = cellid.cell_from_point(px, py, 1024.0)
        for lv in range(0, cellid.MAX_LEVEL, 3):
            anc = cellid.parent(leaf, lv)
            x0, y0, x1, y1 = cellid.cell_bounds(anc, 1024.0)
            assert x0[0] <= px[0] <= x1[0] and y0[0] <= py[0] <= y1[0]
            assert cellid.contains(anc, leaf)[0]

    def test_cell_side(self):
        assert cellid.cell_side(0, 8192.0) == 8192.0
        assert cellid.cell_side(10, 8192.0) == 8.0

    def test_min_level_for_precision(self):
        # Diagonal of the chosen level must be <= the bound; one level
        # coarser must violate it.
        for bound in (60.0, 15.0, 4.0, 1.0):
            lv = cellid.min_level_for_precision(bound, 8192.0)
            assert np.sqrt(2) * cellid.cell_side(lv, 8192.0) <= bound
            if lv > 0:
                assert np.sqrt(2) * cellid.cell_side(lv - 1, 8192.0) > bound
        finest = np.sqrt(2) * cellid.cell_side(cellid.MAX_LEVEL, 8192.0)
        assert cellid.min_level_for_precision(finest, 8192.0) == cellid.MAX_LEVEL
        # No level meets a bound finer than the finest diagonal, or NaN.
        for bound in (finest * 0.99, 1e-9, np.nan):
            with pytest.raises(ValueError):
                cellid.min_level_for_precision(bound, 8192.0)

    def test_min_level_known_values(self):
        # The DESIGN.md mapping: 60/15/4 m -> levels 8/10/12 at 8192 m.
        assert cellid.min_level_for_precision(60.0, 8192.0) == 8
        assert cellid.min_level_for_precision(15.0, 8192.0) == 10
        assert cellid.min_level_for_precision(4.0, 8192.0) == 12

    def test_min_level_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            cellid.min_level_for_precision(0.0, 8192.0)

    def test_cells_in_rect(self):
        ids = cellid.cells_in_rect(0, 0, 1024, 1024, 2, 1024.0)
        assert len(ids) == 16
        ids2 = cellid.cells_in_rect(10, 10, 20, 20, 5, 1024.0)
        assert len(ids2) == 1

    def test_cells_in_rect_clamps(self):
        ids = cellid.cells_in_rect(-50, -50, 2000, 2000, 1, 1024.0)
        assert len(ids) == 4


class TestCurveOrder:
    def test_disjoint_cells_have_disjoint_ranges(self):
        x, y = np.meshgrid(np.arange(16), np.arange(16))
        ids = np.sort(cellid.cell_from_xy(x.ravel(), y.ravel(), 4))
        assert np.all(cellid.range_max(ids[:-1]) < cellid.range_min(ids[1:]))

    @given(st.integers(0, 2**30 - 1), st.integers(0, 2**30 - 1))
    @settings(max_examples=50, deadline=None)
    def test_leaf_within_ancestor_range(self, x, y):
        leaf = cellid.cell_from_xy(np.array([x]), np.array([y]), 30)
        for lv in (0, 7, 15, 29):
            anc = cellid.parent(leaf, lv)
            assert cellid.range_min(anc)[0] <= leaf[0] <= cellid.range_max(anc)[0]
