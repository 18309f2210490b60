"""Planar polygon geometry, fully vectorized with numpy.

This is the substrate the paper gets from the S2/boost libraries: the exact
point-in-polygon (PIP) test via the ray-crossing algorithm (paper §2),
batched over (point, polygon) pairs in :meth:`PolygonSet.contains` (the one
PIP test the join's refinement, the coverings, the baselines and the
brute-force oracle run), minimum bounding rectangles, exact
segment-vs-axis-aligned-rectangle intersection (used to classify quadtree
cells as boundary cells), proper segment crossings (used to carry point
containment from a known point to a nearby one), and point-to-polygon
distance (used to verify the approximate join's precision bound). Every
segment/rect and segment/segment predicate of the package lives here.

Polygons are simple (non-self-intersecting) rings given as vertex arrays;
the closing edge from the last vertex back to the first is implicit.

Boundary rule (semi-open, as S2's polygon model): ``PolygonSet`` stores
every edge upwards (``y1 <= y2``), so the two polygons on either side of a
shared edge test it with the same operands. A point on a non-horizontal
edge then belongs to the polygon on the edge's +x side; a point on a
horizontal edge or a vertex follows the half-open y rule (lower end
closed, upper end open). The polygons of a tiling thus partition the
plane, and the test agrees bit for bit with the SQL oracle
(``sql_oracle.PIP_JOIN_SQL``) fed the same edges.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# (row, edge) pairs tested per chunk: small enough that a chunk's
# temporaries stay in a core's L2 cache, however many rows one call has.
_PAIR_CHUNK = 65_536


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(s, s + c)`` for each ``(s, c)``."""
    ends = np.cumsum(counts, dtype=np.int64)
    total = int(ends[-1]) if len(ends) else 0
    return np.arange(total, dtype=np.int64) - np.repeat(ends - counts - starts, counts)


def _chunks(counts: np.ndarray, limit: int):
    """Yield ``(lo, hi)``: consecutive row ranges whose ``counts`` sum to at
    most ``limit`` (or one row that alone exceeds it)."""
    ends = np.cumsum(counts)
    lo = 0
    while lo < len(counts):
        done = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, done + limit, side="right")))
        yield lo, hi
        lo = hi


def _edge_chunks(polys: np.ndarray, pset: PolygonSet):
    """Yield ``(lo, hi, row, edge)``: rows ``lo:hi`` each joined to every
    edge of its polygon ``polys[row]``, ordered by row, about
    ``_PAIR_CHUNK`` pairs per chunk."""
    counts = np.diff(pset.edge_offsets)[polys]
    for lo, hi in _chunks(counts, _PAIR_CHUNK):
        c = counts[lo:hi]
        yield lo, hi, np.repeat(np.arange(lo, hi), c), _ranges(
            pset.edge_offsets[polys[lo:hi]], c
        )


@dataclass(frozen=True)
class Polygon:
    """A simple polygon ring. ``xs``/``ys`` are float64 vertex arrays."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self) -> None:
        if len(self.xs) != len(self.ys) or len(self.xs) < 3:
            raise ValueError("polygon needs >= 3 vertices with matching x/y")

    @property
    def n_vertices(self) -> int:
        return len(self.xs)

    def edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(x1, y1, x2, y2) arrays, one entry per edge (ring closed)."""
        x2 = np.roll(self.xs, -1)
        y2 = np.roll(self.ys, -1)
        return self.xs, self.ys, x2, y2

    def mbr(self) -> tuple[float, float, float, float]:
        """(x0, y0, x1, y1) minimum bounding rectangle."""
        return (
            float(self.xs.min()),
            float(self.ys.min()),
            float(self.xs.max()),
            float(self.ys.max()),
        )

    def area(self) -> float:
        """Signed shoelace area (positive for counter-clockwise rings)."""
        x1, y1, x2, y2 = self.edges()
        return float(0.5 * np.sum(x1 * y2 - x2 * y1))


@dataclass
class PolygonSet:
    """A dataset of polygons with flattened edge arrays for vectorized ops.

    Mirrors the paper's polygon datasets (boroughs / neighborhoods / census):
    a static, largely disjoint collection joined against point streams.
    """

    polygons: list[Polygon]
    name: str = "polygons"
    extent: float = 0.0
    # Flattened edge arrays (built in __post_init__).
    edge_x1: np.ndarray = field(init=False, repr=False)
    edge_y1: np.ndarray = field(init=False, repr=False)
    edge_x2: np.ndarray = field(init=False, repr=False)
    edge_y2: np.ndarray = field(init=False, repr=False)
    edge_poly: np.ndarray = field(init=False, repr=False)
    # Per-polygon edge slices into the flattened arrays.
    edge_offsets: np.ndarray = field(init=False, repr=False)
    mbrs: np.ndarray = field(init=False, repr=False)  # (n, 4): x0 y0 x1 y1

    def __post_init__(self) -> None:
        edges = zip(*(p.edges() for p in self.polygons))
        x1, y1, x2, y2 = (np.concatenate(c) for c in edges)
        # Every edge upwards: the crossing test and the SQL oracle then see
        # the same operands for both polygons that share an edge.
        down = y1 > y2
        self.edge_x1, self.edge_x2 = np.where(down, x2, x1), np.where(down, x1, x2)
        self.edge_y1, self.edge_y2 = np.where(down, y2, y1), np.where(down, y1, y2)
        counts = [p.n_vertices for p in self.polygons]
        self.edge_poly = np.repeat(np.arange(len(counts), dtype=np.int32), counts)
        self.edge_offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        self.mbrs = np.array([p.mbr() for p in self.polygons], np.float64)

    def __len__(self) -> int:
        return len(self.polygons)

    @property
    def n_edges(self) -> int:
        return len(self.edge_x1)

    def avg_vertices(self) -> float:
        return self.n_edges / max(1, len(self.polygons))

    def contains(self, px: np.ndarray, py: np.ndarray, polys: np.ndarray) -> np.ndarray:
        """Whether point ``(px[i], py[i])`` lies inside polygon ``polys[i]``.

        The crossing-number test (paper §2) over all pairs at once,
        whatever their polygons: each pair meets every edge of its polygon,
        in chunks of about ``_PAIR_CHUNK`` (pair, edge) tests, and is
        inside iff its +x ray crosses an odd number of them. Points on the
        boundary follow the semi-open rule of the module docstring.
        """
        px = np.asarray(px, np.float64)
        py = np.asarray(py, np.float64)
        ex1, ey1, ex2, ey2 = self.edge_x1, self.edge_y1, self.edge_x2, self.edge_y2
        crossings = np.zeros(len(px), np.int64)
        for lo, hi, row, e in _edge_chunks(np.asarray(polys), self):
            # Only edges that straddle the point's horizontal line can cross.
            ys = py[row]
            near = (ey1[e] > ys) != (ey2[e] > ys)
            row, e = row[near], e[near]
            cr = ray_crossings(px[row], py[row], ex1[e], ey1[e], ex2[e], ey2[e])
            crossings[lo:hi] += np.bincount(row[cr] - lo, minlength=hi - lo)
        return (crossings & 1).astype(bool)

    def edges_pdf(self):
        """Edge table as a pandas frame, edges upwards (for the SQL oracle)."""
        import pandas as pd

        return pd.DataFrame(
            {
                "poly_id": self.edge_poly.astype(np.int64),
                "x1": self.edge_x1,
                "y1": self.edge_y1,
                "x2": self.edge_x2,
                "y2": self.edge_y2,
            }
        )


def ray_crossings(
    px: np.ndarray,
    py: np.ndarray,
    x1: np.ndarray,
    y1: np.ndarray,
    x2: np.ndarray,
    y2: np.ndarray,
) -> np.ndarray:
    """Whether the +x ray from each point crosses each edge (broadcasting).

    The crossing-number step of :meth:`PolygonSet.contains` for upward
    edges (``y1 <= y2``): the edge straddles the point's horizontal line
    (lower end closed, upper end open) and the point lies strictly left of
    it. The cross-product form of ``sql_oracle.PIP_JOIN_SQL``, operation
    for operation, so both round alike.
    """
    straddle = (y1 > py) != (y2 > py)
    return straddle & ((px - x1) * (y2 - y1) - (py - y1) * (x2 - x1) < 0)


def point_in_polygon_set(
    px: np.ndarray, py: np.ndarray, pset: PolygonSet
) -> tuple[np.ndarray, np.ndarray]:
    """Brute-force join oracle: all (point_idx, poly_id) containment pairs.

    Every point in a polygon's MBR is paired with it, and all pairs go
    through one :meth:`PolygonSet.contains` call.
    """
    pts = [
        np.flatnonzero((px >= x0) & (px <= x1) & (py >= y0) & (py <= y1))
        for x0, y0, x1, y1 in pset.mbrs
    ]
    pi = np.concatenate(pts)
    pj = np.repeat(np.arange(len(pset), dtype=np.int32), [len(p) for p in pts])
    inside = pset.contains(px[pi], py[pi], pj)
    return pi[inside].astype(np.int64), pj[inside]


def segments_intersect_rects(
    sx1: np.ndarray,
    sy1: np.ndarray,
    sx2: np.ndarray,
    sy2: np.ndarray,
    rx0: np.ndarray,
    ry0: np.ndarray,
    rx1: np.ndarray,
    ry1: np.ndarray,
) -> np.ndarray:
    """Exact segment-vs-axis-aligned-rect intersection (broadcasting).

    Separating axis theorem for a segment and a box: the only candidate
    separating axes are x, y (bounding-box overlap) and the segment normal
    (all four box corners strictly on one side). Exact for closed shapes:
    touching counts as intersecting.

    Operands broadcast: aligned (n,) arrays test pair-wise; rects as
    ``[:, None]`` and segments as ``[None, :]`` give the (rects x segments)
    cross product.
    """
    # Axis tests: segment bbox vs rect.
    bbox_ok = (
        (np.minimum(sx1, sx2) <= rx1)
        & (np.maximum(sx1, sx2) >= rx0)
        & (np.minimum(sy1, sy2) <= ry1)
        & (np.maximum(sy1, sy2) >= ry0)
    )
    # Segment-normal test: signed side of each rect corner wrt segment line.
    dx = sx2 - sx1
    dy = sy2 - sy1
    s00 = dx * (ry0 - sy1) - dy * (rx0 - sx1)
    s01 = dx * (ry1 - sy1) - dy * (rx0 - sx1)
    s10 = dx * (ry0 - sy1) - dy * (rx1 - sx1)
    s11 = dx * (ry1 - sy1) - dy * (rx1 - sx1)
    all_pos = (s00 > 0) & (s01 > 0) & (s10 > 0) & (s11 > 0)
    all_neg = (s00 < 0) & (s01 < 0) & (s10 < 0) & (s11 < 0)
    return bbox_ok & ~(all_pos | all_neg)


def segments_cross(
    ax: np.ndarray,
    ay: np.ndarray,
    bx: np.ndarray,
    by: np.ndarray,
    ex1: np.ndarray,
    ey1: np.ndarray,
    ex2: np.ndarray,
    ey2: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Proper crossings of segments a->b with edges e1->e2 (broadcasting).

    Returns ``(crosses, degenerate)``: ``crosses`` when each segment's
    endpoints lie strictly on opposite sides of the other's line;
    ``degenerate`` when any of the four orientation values is zero
    (collinear or touching), where crossing parity cannot be trusted.
    Operands broadcast like :func:`segments_intersect_rects`.
    """
    d1 = (bx - ax) * (ey1 - ay) - (by - ay) * (ex1 - ax)
    d2 = (bx - ax) * (ey2 - ay) - (by - ay) * (ex2 - ax)
    d3 = (ex2 - ex1) * (ay - ey1) - (ey2 - ey1) * (ax - ex1)
    d4 = (ex2 - ex1) * (by - ey1) - (ey2 - ey1) * (bx - ex1)
    crosses = ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0))
    degenerate = (d1 == 0) | (d2 == 0) | (d3 == 0) | (d4 == 0)
    return crosses, degenerate


def point_segment_distance(
    px: np.ndarray,
    py: np.ndarray,
    x1: np.ndarray,
    y1: np.ndarray,
    x2: np.ndarray,
    y2: np.ndarray,
) -> np.ndarray:
    """Min distance from each point to its paired segment (same-shape arrays)."""
    dx = x2 - x1
    dy = y2 - y1
    ll = dx * dx + dy * dy
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(ll > 0, ((px - x1) * dx + (py - y1) * dy) / ll, 0.0)
    t = np.clip(t, 0.0, 1.0)
    cx = x1 + t * dx
    cy = y1 + t * dy
    return np.hypot(px - cx, py - cy)


def point_to_polygon_distance(
    px: np.ndarray, py: np.ndarray, poly: Polygon, chunk: int = 2_000_000
) -> np.ndarray:
    """Distance from points to the polygon (0 if inside).

    Checks the approximate join's precision bound (paper §3.2): its false
    positives must lie within the bound of the polygon. The tests and the
    benchmark's result check (``perfbench/check.py``) use it; no join does.
    """
    px = np.asarray(px, np.float64)
    py = np.asarray(py, np.float64)
    x1, y1, x2, y2 = poly.edges()
    n, e = len(px), len(x1)
    out = np.empty(n, np.float64)
    step = max(1, chunk // max(1, e))
    for s in range(0, n, step):
        d = point_segment_distance(
            px[s : s + step, None],
            py[s : s + step, None],
            x1[None, :],
            y1[None, :],
            x2[None, :],
            y2[None, :],
        )
        out[s : s + step] = d.min(axis=1)
    out[PolygonSet([poly]).contains(px, py, np.zeros(n, np.int64))] = 0.0
    return out

