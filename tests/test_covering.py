"""Tests for the covering engine (S2RegionCoverer substitute), one polygon
at a time: ``cover_polygons`` over one job, ``classify_pairs`` against one
polygon."""
import numpy as np
import pytest

from repro import synth_data as sd
from repro.core import cellid
from repro.core.covering import (
    BOUNDARY,
    INTERIOR,
    OUTSIDE,
    classify_pairs,
    cover_polygons,
)
from repro.geometry.polygon import Polygon, PolygonSet
from tests.pip_helpers import inside_polygon

EXT = 1024.0


def square(x0, y0, side) -> PolygonSet:
    return PolygonSet([
        Polygon(
            xs=np.array([x0, x0 + side, x0 + side, x0], float),
            ys=np.array([y0, y0, y0 + side, y0 + side], float),
        )
    ])


@pytest.fixture(scope="module")
def neigh():
    return sd.polygon_dataset("neighborhoods", scale="test")


class TestClassify:
    def test_square_classification(self):
        # Polygon = cell (1,1) at level 2 exactly; classify level-3 cells.
        pset = square(256, 256, 256)
        x, y = np.meshgrid(np.arange(8), np.arange(8))
        ids = cellid.cell_from_xy(x.ravel(), y.ravel(), 3)
        cls = classify_pairs(ids, np.zeros(len(ids), np.int64), pset, EXT)
        x0, y0, x1, y1 = cellid.cell_bounds(ids, EXT)
        for k in range(len(ids)):
            overlap_x = max(x0[k], 256) < min(x1[k], 512)
            overlap_y = max(y0[k], 256) < min(y1[k], 512)
            touches = (x0[k] <= 512 and x1[k] >= 256 and y0[k] <= 512 and y1[k] >= 256)
            if overlap_x and overlap_y:
                # Strictly overlapping cells: cells on the polygon edge are
                # boundary, the rest would be interior — but every level-3
                # cell inside this polygon touches its boundary lines only
                # if adjacent. Just check none is OUTSIDE.
                assert cls[k] != OUTSIDE
            elif not touches:
                assert cls[k] == OUTSIDE

    def test_interior_detection(self):
        pset = square(0, 0, 1024)  # whole region
        ids = cellid.cells_in_rect(200, 200, 800, 800, 4, EXT)
        cls = classify_pairs(ids, np.zeros(len(ids), np.int64), pset, EXT)
        # Cells away from the region border are interior.
        x0, y0, x1, y1 = cellid.cell_bounds(ids, EXT)
        inner = (x0 > 0) & (y0 > 0) & (x1 < 1024) & (y1 < 1024)
        assert np.all(cls[inner] == INTERIOR)

    def test_empty_input(self):
        empty = np.empty(0, np.int64)
        assert classify_pairs(empty, empty, square(0, 0, 10), EXT).shape == (0,)


class TestPrecisionCovering:
    @pytest.mark.parametrize("level", [6, 8, 10])
    def test_boundary_cells_at_exact_level(self, neigh, level):
        ids, flags, _ = cover_polygons(neigh, [7], sd.EXTENT, level, np.inf, True)
        lv = cellid.level_of(ids)
        assert np.all(lv[~flags] == level)
        assert np.all(lv[flags] <= level)

    def test_interior_cells_inside(self, neigh):
        poly = neigh.polygons[3]
        ids, flags, _ = cover_polygons(neigh, [3], sd.EXTENT, 9, np.inf, True)
        # Sample the corners and center of each interior cell: all inside.
        x0, y0, x1, y1 = cellid.cell_bounds(ids[flags], sd.EXTENT)
        eps = 1e-9
        for sx, sy in [(x0 + eps, y0 + eps), ((x0 + x1) / 2, (y0 + y1) / 2), (x1 - eps, y1 - eps)]:
            assert inside_polygon(sx, sy, poly).all()

    def test_per_polygon_disjoint(self, neigh):
        ids, _, _ = cover_polygons(neigh, [0], sd.EXTENT, 9, np.inf, True)
        s = np.sort(ids)
        assert np.all(cellid.range_max(s[:-1]) < cellid.range_min(s[1:]))

    def test_covering_is_complete(self, neigh):
        """Every point inside the polygon falls in some covering cell."""
        poly = neigh.polygons[12]
        ids, _, _ = cover_polygons(neigh, [12], sd.EXTENT, 9, np.inf, True)
        x0, y0, x1, y1 = poly.mbr()
        g = np.random.default_rng(0)
        px = g.uniform(x0, x1, 3000)
        py = g.uniform(y0, y1, 3000)
        inside = inside_polygon(px, py, poly)
        pt = cellid.cell_from_point(px[inside], py[inside], sd.EXTENT)
        s = np.sort(ids)
        i = np.searchsorted(s, pt)
        ok = np.zeros(len(pt), bool)
        ok |= (i > 0) & (cellid.range_max(s[np.maximum(i - 1, 0)]) >= pt)
        ok |= (i < len(s)) & (cellid.range_min(s[np.minimum(i, len(s) - 1)]) <= pt)
        assert ok.all()

    def test_outside_mostly_uncovered(self, neigh):
        """Points far from the polygon never land in covering cells."""
        poly = neigh.polygons[12]
        ids, _, _ = cover_polygons(neigh, [12], sd.EXTENT, 9, np.inf, True)
        x0, y0, x1, y1 = poly.mbr()
        g = np.random.default_rng(1)
        px = g.uniform(0, sd.EXTENT, 5000)
        py = g.uniform(0, sd.EXTENT, 5000)
        far = (px < x0 - 50) | (px > x1 + 50) | (py < y0 - 50) | (py > y1 + 50)
        pt = cellid.cell_from_point(px[far], py[far], sd.EXTENT)
        s = np.sort(ids)
        i = np.searchsorted(s, pt)
        hit = np.zeros(len(pt), bool)
        hit |= (i > 0) & (cellid.range_max(s[np.maximum(i - 1, 0)]) >= pt)
        hit |= (i < len(s)) & (cellid.range_min(s[np.minimum(i, len(s) - 1)]) <= pt)
        assert not hit.any()

    def test_finer_precision_more_cells(self, neigh):
        n8, n10, n12 = (
            len(cover_polygons(neigh, [5], sd.EXTENT, level, np.inf, True)[0])
            for level in (8, 10, 12)
        )
        assert n8 < n10 < n12


class TestBudgetedCoverings:
    def test_covering_superset_of_polygon(self, neigh):
        poly = neigh.polygons[9]
        ids = cover_polygons(neigh, [9], sd.EXTENT, 12, 64, True)[0]
        x0, y0, x1, y1 = poly.mbr()
        g = np.random.default_rng(2)
        px = g.uniform(x0, x1, 2000)
        py = g.uniform(y0, y1, 2000)
        inside = inside_polygon(px, py, poly)
        pt = cellid.cell_from_point(px[inside], py[inside], sd.EXTENT)
        s = np.sort(ids)
        i = np.searchsorted(s, pt)
        ok = np.zeros(len(pt), bool)
        ok |= (i > 0) & (cellid.range_max(s[np.maximum(i - 1, 0)]) >= pt)
        ok |= (i < len(s)) & (cellid.range_min(s[np.minimum(i, len(s) - 1)]) <= pt)
        assert ok.all()

    def test_interior_covering_subset_of_polygon(self, neigh):
        poly = neigh.polygons[9]
        ids = cover_polygons(neigh, [9], sd.EXTENT, 12, 256, False)[0]
        assert len(ids) > 0
        x0, y0, x1, y1 = cellid.cell_bounds(ids, sd.EXTENT)
        g = np.random.default_rng(3)
        # Sample random points within each interior cell: all must be inside.
        for _ in range(3):
            sx = x0 + g.random(len(ids)) * (x1 - x0)
            sy = y0 + g.random(len(ids)) * (y1 - y0)
            assert inside_polygon(sx, sy, poly).all()

    def test_budget_limits_cells(self, neigh):
        small = cover_polygons(neigh, [2], sd.EXTENT, 14, 32, True)[0]
        large = cover_polygons(neigh, [2], sd.EXTENT, 14, 512, True)[0]
        assert len(small) < len(large)
        assert len(small) <= 4 * 32  # budget respected within a split round

    def test_max_level_respected(self, neigh):
        ids = cover_polygons(neigh, [2], sd.EXTENT, 7, 10**9, True)[0]
        assert cellid.level_of(ids).max() <= 7

    def test_coverings_overlap_interior(self, neigh):
        """Budgeted covering and interior covering conflict (S2-style):
        this is what Listing 1's conflict resolution must handle."""
        c = np.sort(cover_polygons(neigh, [9], sd.EXTENT, 12, 64, True)[0])
        i = cover_polygons(neigh, [9], sd.EXTENT, 12, 256, False)[0]
        pos = np.searchsorted(c, i)
        conflict = np.zeros(len(i), bool)
        conflict |= (pos > 0) & (cellid.range_max(c[np.maximum(pos - 1, 0)]) >= i)
        conflict |= (pos < len(c)) & (cellid.range_min(c[np.minimum(pos, len(c) - 1)]) <= cellid.range_max(i))
        assert conflict.any()

