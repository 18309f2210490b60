"""Equivalence tests: hierarchical covering engine vs the exact reference.

The hierarchical descent (edge-subset propagation + center-parity
transport) must classify cells exactly like the brute-force
``classify_pairs``; these tests pin that equivalence on complex (fractal
boroughs) and simple (census) polygons, and on random triangles down to
ones smaller than a boundary cell, for which the descent must still stop.
"""
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro import synth_data as sd
from repro.baselines.shapeindex import build_shapeindex
from repro.core import cellid
from repro.core.covering import cover_polygons
from repro.core.join import build_index, compute_coverings, probe_batch
from repro.geometry.polygon import (
    Polygon,
    PolygonSet,
    point_in_polygon_set,
    point_to_polygon_distance,
)
from tests.covering_reference import BOUNDARY, INTERIOR, classify_pairs
from tests.pip_helpers import inside_polygon


@pytest.mark.parametrize("name,poly_id", [("boroughs", 1), ("neighborhoods", 7), ("census", 30)])
@pytest.mark.parametrize("level", [8, 10])
def test_precision_covering_matches_reference(name, poly_id, level):
    pset = sd.polygon_dataset(name, scale="test")
    ids, flags, _ = cover_polygons(pset, [poly_id], sd.EXTENT, level, np.inf, True)
    cls = classify_pairs(ids, np.full(len(ids), poly_id), pset, sd.EXTENT)
    assert np.all(cls[flags] == INTERIOR)
    assert np.all(cls[~flags] == BOUNDARY)


@pytest.mark.parametrize("name", sd.POLYGON_DATASETS)
def test_budgeted_covering_cells_touch_polygon(name):
    pset = sd.polygon_dataset(name, scale="test")
    ids = cover_polygons(pset, [0], sd.EXTENT, 14, 128, True)[0]
    cls = classify_pairs(ids, np.zeros(len(ids), np.int64), pset, sd.EXTENT)
    assert np.all(cls != 0)  # every covering cell intersects the polygon


@pytest.mark.parametrize("name", sd.POLYGON_DATASETS)
def test_budgeted_interior_cells_are_interior(name):
    pset = sd.polygon_dataset(name, scale="test")
    ids = cover_polygons(pset, [0], sd.EXTENT, 13, 512, False)[0]
    cls = classify_pairs(ids, np.zeros(len(ids), np.int64), pset, sd.EXTENT)
    assert np.all(cls == INTERIOR)


def test_coverings_union_covers_polygon_area():
    """Interior + boundary cell areas bracket the polygon area."""
    pset = sd.polygon_dataset("neighborhoods", scale="test")
    poly = pset.polygons[11]
    ids, flags, _ = cover_polygons(pset, [11], sd.EXTENT, 11, np.inf, True)
    side = sd.EXTENT / np.power(2.0, cellid.level_of(ids).astype(float))
    areas = side * side
    interior_area = areas[flags].sum()
    total_area = areas.sum()
    assert interior_area <= poly.area() <= total_area


def test_fractal_polygon_complete_covering():
    """The fractal borough boundary must still be fully covered."""
    pset = sd.polygon_dataset("boroughs", scale="test")
    poly = pset.polygons[1]
    ids, _, _ = cover_polygons(pset, [1], sd.EXTENT, 11, np.inf, True)
    g = np.random.default_rng(6)
    x0, y0, x1, y1 = poly.mbr()
    px = g.uniform(x0, x1, 4000)
    py = g.uniform(y0, y1, 4000)
    inside = inside_polygon(px, py, poly)
    pt = cellid.cell_from_point(px[inside], py[inside], sd.EXTENT)
    s = np.sort(ids)
    i = np.searchsorted(s, pt)
    ok = np.zeros(len(pt), bool)
    ok |= (i > 0) & (cellid.range_max(s[np.maximum(i - 1, 0)]) >= pt)
    ok |= (i < len(s)) & (cellid.range_min(s[np.minimum(i, len(s) - 1)]) <= pt)
    assert ok.all()


@st.composite
def triangles(draw):
    """Random triangles from 10 cm to 200 m across, many of them smaller
    than one boundary cell."""
    size = draw(st.floats(0.1, 200.0))
    x0 = draw(st.floats(0.0, sd.EXTENT - size))
    y0 = draw(st.floats(0.0, sd.EXTENT - size))
    u = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6)))
    poly = Polygon(x0 + size * u[:3], y0 + size * u[3:])
    assume(abs(poly.area()) > 1e-3 * size * size)
    return poly


@given(triangles(), st.sampled_from([8, 10, 12]))
@settings(max_examples=60, deadline=None)
# A vertical edge one ulp right of the cell border x = 0, and a diagonal
# edge through cell corners.
@example(Polygon(np.array([2.0**-52, 76.0, 2.0**-52]), np.array([0.0, 76.0, 76.0])), 13)
def test_precision_covering_of_small_polygons(poly, level):
    """The descent stops for polygons whose seed cells are already finer
    than the boundary level, and classifies like the reference."""
    pset = PolygonSet([poly])
    ids, flags, _ = cover_polygons(pset, [0], sd.EXTENT, level, np.inf, True)
    levels = cellid.level_of(ids[~flags])
    assert len(levels) and levels.min() >= level and levels.max() <= cellid.MAX_LEVEL
    cls = classify_pairs(ids, np.zeros(len(ids), np.int64), pset, sd.EXTENT)
    assert np.all(cls[flags] == INTERIOR)
    assert np.all(cls[~flags] == BOUNDARY)


def test_approx_join_on_one_meter_triangle():
    """A polygon smaller than a 4 m boundary cell: the approximate join
    still returns every true pair, and false positives stay within 4 m."""
    x0, y0 = 4000.3, 5000.7
    pset = PolygonSet([Polygon(np.array([x0, x0 + 1.0, x0]), np.array([y0, y0, y0 + 1.0]))])
    bundle = build_index(pset, sd.EXTENT, mode="approx", precision_m=4.0)
    g = np.random.default_rng(3)
    px = x0 + g.uniform(-8.0, 9.0, 20_000)
    py = y0 + g.uniform(-8.0, 9.0, 20_000)
    rows, polys, _true, _stats = probe_batch(bundle, px, py, exact=False)
    got = set(zip(rows.tolist(), polys.tolist()))
    ti, tp = point_in_polygon_set(px, py, pset)
    truth = set(zip(ti.tolist(), tp.tolist()))
    assert truth and truth <= got
    fp = np.array(sorted(p for p, _ in got - truth), np.int64)
    assert np.all(point_to_polygon_distance(px[fp], py[fp], pset.polygons[0]) <= 4.0)


def test_joins_on_triangle_with_edge_through_cell_corners():
    """The edge y = x runs through the corners of cells, so the parity
    transport from a boundary cell's parent centre is degenerate. The
    boundary cell's own centre flag, which its descendants inherit, must
    come from the full PIP test: the approximate join is then a superset
    within 4 m and the exact join equals the truth. The shape index's
    point-to-centre parity is degenerate there too, and its SI1 and SI10
    joins must fall back to the full PIP test to equal the truth."""
    poly = Polygon(np.array([128.0, 0.0, 128.0]), np.array([128.0, 0.0, 0.0]))
    pset = PolygonSet([poly])
    ids, flags, _ = cover_polygons(pset, [0], sd.EXTENT, 12, np.inf, True)
    inner = ids[flags]
    cls = classify_pairs(inner, np.zeros(len(inner), np.int64), pset, sd.EXTENT)
    assert np.all(cls == INTERIOR)
    g = np.random.default_rng(0)
    px, py = g.uniform(0.0, 128.0, 20_000), g.uniform(0.0, 128.0, 20_000)
    ti, tp = point_in_polygon_set(px, py, pset)
    truth = set(zip(ti.tolist(), tp.tolist()))
    for mode, precision, exact in (("approx", 4.0, False), ("accurate", None, True)):
        bundle = build_index(pset, sd.EXTENT, mode=mode, precision_m=precision)
        rows, polys, _true, _stats = probe_batch(bundle, px, py, exact=exact)
        got = set(zip(rows.tolist(), polys.tolist()))
        if exact:
            assert got == truth
        else:
            assert truth <= got
            fp = np.array(sorted(p for p, _ in got - truth), np.int64)
            assert np.all(point_to_polygon_distance(px[fp], py[fp], poly) <= 4.0)
    for extent in (sd.EXTENT, 128.0):
        for max_edges in (1, 10):
            si = build_shapeindex(pset, extent, max_edges_per_cell=max_edges)
            rows, polys, _stats = si.join(px, py)
            assert set(zip(rows.tolist(), polys.tolist())) == truth


@pytest.mark.parametrize("name", sd.POLYGON_DATASETS)
@pytest.mark.parametrize("mode,precision", [("approx", 4.0), ("accurate", None)])
def test_coverings_independent_of_batch(name, mode, precision):
    """One descent over the whole set gives each polygon exactly the rows
    a descent over that polygon alone gives, in the same order."""
    pset = sd.polygon_dataset(name, scale="test")
    cells, polys, flags = compute_coverings(pset, sd.EXTENT, mode, precision)
    assert np.all(np.isin(np.arange(len(pset)), polys))
    for pid in range(len(pset)):
        alone_cells, alone_polys, alone_flags = compute_coverings(
            PolygonSet([pset.polygons[pid]]), sd.EXTENT, mode, precision
        )
        mine = polys == pid
        np.testing.assert_array_equal(cells[mine], alone_cells)
        np.testing.assert_array_equal(flags[mine], alone_flags)
        assert np.all(alone_polys == 0)
