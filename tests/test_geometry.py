"""Unit tests for the geometry substrate (PIP, segment predicates, distances)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import synth_data as sd
from repro.geometry import polygon
from repro.geometry.polygon import (
    Polygon,
    PolygonSet,
    point_in_polygon_set,
    point_segment_distance,
    point_to_polygon_distance,
    segments_cross,
    segments_intersect_rects,
)
from tests.pip_helpers import (
    adversarial_pairs,
    adversarial_points,
    inside_polygon,
    oracle_contains,
)


def square(x0=0.0, y0=0.0, side=1.0) -> Polygon:
    return Polygon(
        xs=np.array([x0, x0 + side, x0 + side, x0]),
        ys=np.array([y0, y0, y0 + side, y0 + side]),
    )


def concave() -> Polygon:
    """U-shaped (concave) polygon on [0,4]x[0,4] with a notch at the top."""
    return Polygon(
        xs=np.array([0.0, 4.0, 4.0, 3.0, 3.0, 1.0, 1.0, 0.0]),
        ys=np.array([0.0, 0.0, 4.0, 4.0, 1.0, 1.0, 4.0, 4.0]),
    )


class TestPolygon:
    def test_needs_three_vertices(self):
        with pytest.raises(ValueError):
            Polygon(xs=np.array([0.0, 1.0]), ys=np.array([0.0, 1.0]))

    def test_mismatched_arrays(self):
        with pytest.raises(ValueError):
            Polygon(xs=np.array([0.0, 1.0, 2.0]), ys=np.array([0.0, 1.0]))

    def test_edges_close_ring(self):
        p = square()
        x1, y1, x2, y2 = p.edges()
        assert len(x1) == 4
        assert x2[-1] == x1[0] and y2[-1] == y1[0]

    def test_mbr(self):
        assert square(2, 3, 5).mbr() == (2, 3, 7, 8)

    def test_area_ccw_positive(self):
        assert square().area() == pytest.approx(1.0)
        assert concave().area() == pytest.approx(16 - 2 * 3)

    def test_n_vertices(self):
        assert square().n_vertices == 4


class TestPIP:
    def test_unit_square(self):
        px = np.array([0.5, 1.5, -0.5, 0.99, 0.5])
        py = np.array([0.5, 0.5, 0.5, 0.01, 1.5])
        got = inside_polygon(px, py, square())
        np.testing.assert_array_equal(got, [True, False, False, True, False])

    def test_concave_notch(self):
        # (2, 2) sits in the notch (outside); (2, 0.5) in the base (inside).
        px, py = np.array([2.0, 2.0, 0.5, 3.5]), np.array([2.0, 0.5, 3.0, 3.0])
        got = inside_polygon(px, py, concave())
        np.testing.assert_array_equal(got, [False, True, True, True])

    def test_empty_inputs(self):
        assert inside_polygon(np.array([]), np.array([]), square()).shape == (0,)

    @given(st.floats(0.01, 0.99), st.floats(0.01, 0.99))
    @settings(max_examples=30, deadline=None)
    def test_interior_always_inside(self, x, y):
        assert inside_polygon(np.array([x]), np.array([y]), square())[0]

    def test_translation_invariance(self):
        g = np.random.default_rng(1)
        px, py = g.uniform(0, 4, 500), g.uniform(0, 4, 500)
        p = concave()
        a = inside_polygon(px, py, p)
        b = inside_polygon(px + 100, py - 50, Polygon(xs=p.xs + 100, ys=p.ys - 50))
        np.testing.assert_array_equal(a, b)

    def test_semi_open_boundary(self):
        """A point on a non-horizontal edge belongs to the polygon on the
        edge's +x side; on a horizontal edge or a vertex, the lower end is
        closed and the upper end open."""
        left, right = square(0, 0), square(1, 0)
        px = np.array([1.0, 1.0, 0.5, 0.5, 0.0, 1.0, 1.0])
        py = np.array([0.5, 0.0, 0.0, 1.0, 0.0, 1.0, 0.25])
        np.testing.assert_array_equal(inside_polygon(px, py, left), [0, 0, 1, 0, 1, 0, 0])
        np.testing.assert_array_equal(inside_polygon(px, py, right), [1, 1, 0, 0, 0, 0, 1])


class TestPolygonSet:
    def make_set(self):
        return PolygonSet(
            polygons=[square(0, 0, 1), square(1, 0, 1), square(0, 1, 2)],
            name="t",
            extent=3.0,
        )

    def test_flattened_edges(self):
        ps = self.make_set()
        assert ps.n_edges == 12
        assert len(ps) == 3
        assert ps.avg_vertices() == 4.0

    def test_poly_edges_slices(self):
        ps = self.make_set()
        a, b = ps.edge_offsets[1:3]
        assert b - a == 4 and np.all(ps.edge_poly[a:b] == 1)
        assert ps.edge_x1[a:b].min() >= 1.0

    def test_edges_run_upwards(self):
        """Every edge is stored with ``y1 <= y2``; ring order is kept by
        ``Polygon.edges`` alone, so the signed area is unchanged."""
        ps = self.make_set()
        assert np.all(ps.edge_y1 <= ps.edge_y2)
        x1, y1, x2, y2 = square().edges()
        assert np.any(y1 > y2) and square().area() > 0

    def test_mbrs(self):
        ps = self.make_set()
        np.testing.assert_array_equal(ps.mbrs[2], [0, 1, 2, 3])

    def test_point_in_polygon_set(self):
        ps = self.make_set()
        px = np.array([0.5, 1.5, 0.5, 2.5])
        py = np.array([0.5, 0.5, 2.0, 2.5])
        pi, pj = point_in_polygon_set(px, py, ps)
        assert set(zip(pi.tolist(), pj.tolist())) == {(0, 0), (1, 1), (2, 2)}

    def test_edges_pdf_schema(self):
        pdf = self.make_set().edges_pdf()
        assert list(pdf.columns) == ["poly_id", "x1", "y1", "x2", "y2"]
        assert len(pdf) == 12


@pytest.fixture(scope="module", params=["boroughs", "neighborhoods", "census"])
def pip_case(request):
    pset = sd.polygon_dataset(request.param, scale="test")
    px, py, polys = adversarial_pairs(pset)
    return pset, px, py, polys, oracle_contains(px, py, polys, pset)


class TestContains:
    """``PolygonSet.contains`` agrees with the SQL oracle ``PIP_JOIN_SQL``,
    pair by pair, also on vertices, edges and cell borders."""

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("pair_chunk", [polygon._PAIR_CHUNK, 7])
    def test_equals_pairwise_pip(self, pip_case, dtype, pair_chunk, monkeypatch):
        pset, px, py, polys, want = pip_case
        assert want.any() and not want.all()
        # A chunk smaller than any polygon's edge count: one pair per chunk.
        monkeypatch.setattr(polygon, "_PAIR_CHUNK", pair_chunk)
        np.testing.assert_array_equal(pset.contains(px, py, polys.astype(dtype)), want)

    def test_repeated_pairs(self, pip_case):
        pset, px, py, polys, want = pip_case
        idx = np.random.default_rng(1).integers(0, len(px), 2 * len(px))
        np.testing.assert_array_equal(pset.contains(px[idx], py[idx], polys[idx]), want[idx])

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_empty_input(self, pip_case, dtype):
        got = pip_case[0].contains(np.empty(0), np.empty(0), np.empty(0, dtype))
        assert got.shape == (0,) and got.dtype == bool


@pytest.mark.parametrize("name", sd.POLYGON_DATASETS)
def test_tiling_points_in_exactly_one_polygon(name):
    """The test datasets tile the extent: every boundary-case point
    strictly inside it, on shared edges and vertices too, lies in exactly
    one polygon."""
    pset = sd.polygon_dataset(name, scale="test")
    px, py = adversarial_points(pset)
    keep = (px > 0) & (px < sd.EXTENT) & (py > 0) & (py < sd.EXTENT)
    pi, _ = point_in_polygon_set(px[keep], py[keep], pset)
    n_polys = np.bincount(pi, minlength=np.count_nonzero(keep))
    assert not np.any(n_polys == 0), f"{np.count_nonzero(n_polys == 0)} points in no polygon"
    assert not np.any(n_polys > 1), f"{np.count_nonzero(n_polys > 1)} points in more than one"


class TestSegmentRect:
    def rect(self):
        return (
            np.array([0.0]),
            np.array([0.0]),
            np.array([1.0]),
            np.array([1.0]),
        )

    def check(self, x1, y1, x2, y2):
        return segments_intersect_rects(
            np.array([x1]), np.array([y1]), np.array([x2]), np.array([y2]), *self.rect()
        )[0]

    def test_crossing(self):
        assert self.check(-1, 0.5, 2, 0.5)

    def test_fully_inside(self):
        assert self.check(0.3, 0.3, 0.6, 0.6)

    def test_one_endpoint_inside(self):
        assert self.check(0.5, 0.5, 5, 5)

    def test_disjoint_far(self):
        assert not self.check(2, 2, 3, 3)

    def test_bbox_overlap_but_separated_by_line(self):
        # Diagonal segment whose bbox overlaps the rect but whose line
        # keeps all rect corners on one side.
        assert not self.check(2.4, -0.2, -0.2, 2.4)  # line x+y=2.2 > 2
        assert self.check(1.4, -0.5, -0.5, 1.4)  # line x+y=0.9 crosses

    def test_touching_corner(self):
        assert self.check(1.0, 1.0, 2.0, 2.0)  # touches at the corner

    def test_touching_edge(self):
        assert self.check(1.0, 0.2, 1.0, 0.8)  # lies on the right edge

    def test_vertical_and_horizontal(self):
        assert self.check(0.5, -1, 0.5, 2)
        assert self.check(-1, 0.5, 0.5, 0.5)
        assert not self.check(1.5, -1, 1.5, 2)

    def test_degenerate_point_segment(self):
        assert self.check(0.5, 0.5, 0.5, 0.5)
        assert not self.check(1.5, 1.5, 1.5, 1.5)

    def test_matrix_shape(self):
        seg = np.array([0.0, 2.0]), np.array([1.0, 3.0])
        rect = np.array([0.0, 10.0]), np.array([5.0, 11.0])
        out = segments_intersect_rects(
            seg[0][None, :],
            seg[0][None, :],
            seg[1][None, :],
            seg[1][None, :],
            rect[0][:, None],
            rect[0][:, None],
            rect[1][:, None],
            rect[1][:, None],
        )
        assert out.shape == (2, 2)
        assert out[0].tolist() == [True, True] and out[1].tolist() == [False, False]

    def test_exactness_vs_sampling(self):
        """Randomized cross-check against dense segment sampling."""
        g = np.random.default_rng(2)
        for _ in range(200):
            x1, y1, x2, y2 = g.uniform(-1, 2, 4)
            t = np.linspace(0, 1, 2000)
            sx, sy = x1 + t * (x2 - x1), y1 + t * (y2 - y1)
            sampled = np.any((sx >= 0) & (sx <= 1) & (sy >= 0) & (sy <= 1))
            exact = self.check(x1, y1, x2, y2)
            # Sampling can miss grazing contacts but never invents one.
            if sampled:
                assert exact
            if not exact:
                assert not sampled


class TestSegmentCross:
    def cross(self, a, b, e1, e2):
        c, d = segments_cross(*(np.array([v], float) for v in (*a, *b, *e1, *e2)))
        return bool(c[0]), bool(d[0])

    def test_proper_crossing(self):
        assert self.cross((0, 0), (2, 2), (0, 2), (2, 0)) == (True, False)

    def test_disjoint(self):
        assert self.cross((0, 0), (1, 0), (0, 1), (1, 1)) == (False, False)
        assert self.cross((0, 0), (1, 1), (2, 0), (3, -5)) == (False, False)

    def test_touching_is_degenerate(self):
        # The edge ends on the segment: parity cannot be trusted.
        assert self.cross((0, 0), (2, 0), (1, 0), (1, 1))[1]
        assert self.cross((0, 0), (2, 0), (3, 0), (4, 0))[1]  # collinear


@pytest.mark.parametrize("predicate", ["rects", "cross"])
def test_aligned_call_is_cross_product_diagonal(predicate):
    """Each broadcasting predicate gives the same answer for aligned (n,)
    operands as on the diagonal of its (n, n) cross-product call."""
    g = np.random.default_rng(5)
    n = 300
    # Integer grid coordinates make touching and collinear cases common.
    seg = [g.integers(0, 6, n).astype(float) for _ in range(4)]
    other = [g.integers(0, 6, n).astype(float) for _ in range(4)]
    cols = [a[None, :] for a in seg]
    if predicate == "rects":
        rect = [
            np.minimum(other[0], other[2]),
            np.minimum(other[1], other[3]),
            np.maximum(other[0], other[2]),
            np.maximum(other[1], other[3]),
        ]
        aligned = [segments_intersect_rects(*seg, *rect)]
        crossed = [segments_intersect_rects(*cols, *(a[:, None] for a in rect))]
    else:
        aligned = segments_cross(*other, *seg)
        crossed = segments_cross(*(a[:, None] for a in other), *cols)
    for a, c in zip(aligned, crossed):
        assert c.shape == (n, n)
        np.testing.assert_array_equal(a, np.diagonal(c))
        assert a.any() and not a.all()


class TestDistances:
    def test_point_segment(self):
        d = point_segment_distance(
            np.array([0.0, 2.0, 1.0]),
            np.array([1.0, 0.0, 0.0]),
            np.array([0.0, 0.0, 0.0]),
            np.array([0.0, 0.0, 0.0]),
            np.array([1.0, 1.0, 1.0]),
            np.array([0.0, 0.0, 0.0]),
        )
        np.testing.assert_allclose(d, [1.0, 1.0, 0.0])

    def test_degenerate_segment(self):
        d = point_segment_distance(
            np.array([3.0]), np.array([4.0]), np.array([0.0]), np.array([0.0]),
            np.array([0.0]), np.array([0.0]),
        )
        assert d[0] == pytest.approx(5.0)

    def test_point_to_polygon_distance(self):
        p = square()
        d = point_to_polygon_distance(
            np.array([0.5, 2.0, -1.0]), np.array([0.5, 0.5, 0.5]), p
        )
        np.testing.assert_allclose(d, [0.0, 1.0, 1.0])

    def test_inside_is_zero(self):
        g = np.random.default_rng(3)
        px, py = g.uniform(0.05, 0.95, 200), g.uniform(0.05, 0.95, 200)
        d = point_to_polygon_distance(px, py, square())
        assert np.all(d == 0.0)
