"""Synthetic spatial workloads for the point-polygon join reproduction.

The paper evaluates on NYC polygon datasets (boroughs / neighborhoods /
census tracts) and NYC taxi pick-up points plus uniform synthetic points.
Neither is available offline, so we generate synthetic analogs over a
planar square region of side EXTENT meters (see DESIGN.md §3 for the
substitution argument):

* polygon datasets are tilings built from a jittered lattice whose
  shared edges are midpoint-displaced polylines. Like real city polygons
  (and like the paper assumes) they are "largely disjoint": shared
  polylines make neighbors exactly disjoint except for rare sliver
  overlaps near acute jittered corners (<0.1% of points) — boroughs
  get few polygons with long fractal boundaries (complex, like coastline
  borough polygons), neighborhoods/census get many simpler polygons;
* "taxi" points are a clustered Gaussian mixture (a dense Manhattan-like
  strip plus airport-like blobs), "uniform" points are uniform in the MBR.

Generators are deterministic in ``seed`` so the DuckDB oracle sees
identical input.
"""
from functools import lru_cache

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.geometry.polygon import Polygon, PolygonSet

EXTENT = 8192.0


def _displace_polyline(
    p0: np.ndarray,
    p1: np.ndarray,
    depth: int,
    amplitude: float,
    decay: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Midpoint-displacement polyline from p0 to p1 (inclusive).

    Displacement is applied along the segment normal with per-level
    amplitude ``amplitude * decay**level``; as long as the summed amplitude
    stays below half the lattice spacing, neighboring polylines cannot
    cross, so the resulting tiling stays disjoint.
    """
    pts = np.stack([p0, p1]).astype(np.float64)
    normal = np.array([-(p1[1] - p0[1]), p1[0] - p0[0]], np.float64)
    nl = np.hypot(*normal)
    normal = normal / nl if nl > 0 else normal
    amp = amplitude
    for _ in range(depth):
        mids = (pts[:-1] + pts[1:]) / 2.0
        mids = mids + normal[None, :] * rng.normal(0.0, amp, size=len(mids))[:, None]
        out = np.empty((len(pts) + len(mids), 2), np.float64)
        out[0::2] = pts
        out[1::2] = mids
        pts = out
        amp *= decay
    return pts


@lru_cache(maxsize=None)
def _lattice_tiling(
    nx: int,
    ny: int,
    extent: float,
    seed: int,
    depth: int,
    amplitude_frac: float,
    decay: float,
    jitter_frac: float,
    name: str,
) -> PolygonSet:
    """Disjoint tiling of [0, extent)^2 into nx*ny polygons.

    Lattice corners are jittered (interior only), every shared lattice edge
    is replaced by one midpoint-displaced polyline reused by both adjacent
    polygons, so the tiling is exactly disjoint. The region border stays
    straight.
    """
    g = np.random.default_rng(seed)
    cw, ch = extent / nx, extent / ny
    corners = np.empty((nx + 1, ny + 1, 2), np.float64)
    for i in range(nx + 1):
        for j in range(ny + 1):
            x, y = i * cw, j * ch
            if 0 < i < nx:
                x += g.uniform(-jitter_frac, jitter_frac) * cw
            if 0 < j < ny:
                y += g.uniform(-jitter_frac, jitter_frac) * ch
            corners[i, j] = (x, y)
    amp = amplitude_frac * min(cw, ch)

    def polyline(p0, p1, interior: bool):
        # Border polylines stay straight so the tiling exactly fills the box.
        d = depth if interior else 0
        a = amp if interior else 0.0
        return _displace_polyline(p0, p1, d, a, decay, g)

    # Shared edge polylines: horizontal[i][j] from (i,j) to (i+1,j),
    # vertical[i][j] from (i,j) to (i,j+1).
    horiz = {}
    vert = {}
    for i in range(nx):
        for j in range(ny + 1):
            horiz[i, j] = polyline(corners[i, j], corners[i + 1, j], 0 < j < ny)
    for i in range(nx + 1):
        for j in range(ny):
            vert[i, j] = polyline(corners[i, j], corners[i, j + 1], 0 < i < nx)

    polys = []
    for i in range(nx):
        for j in range(ny):
            # Counter-clockwise ring: bottom, right, top reversed, left reversed.
            ring = np.concatenate(
                [
                    horiz[i, j][:-1],
                    vert[i + 1, j][:-1],
                    horiz[i, j + 1][::-1][:-1],
                    vert[i, j][::-1][:-1],
                ]
            )
            polys.append(Polygon(xs=ring[:, 0].copy(), ys=ring[:, 1].copy()))
    return PolygonSet(polygons=polys, name=name, extent=extent)


# (nx, ny, depth, amplitude_frac, decay, jitter_frac) per dataset and scale.
# bench: boroughs = 5 complex polygons (fractal internal boundaries),
# neighborhoods = 289 (17x17) medium polygons, census = 576 (24x24) simple
# polygons — the paper's 39,184 census tracts scaled down 68x (DESIGN.md §3).
_POLYGON_CONFIGS = {
    ("boroughs", "bench"): (5, 1, 13, 0.03, 0.95, 0.08),
    ("neighborhoods", "bench"): (17, 17, 3, 0.15, 0.55, 0.25),
    ("census", "bench"): (24, 24, 1, 0.12, 0.5, 0.25),
    ("boroughs", "test"): (3, 1, 6, 0.08, 0.75, 0.25),
    ("neighborhoods", "test"): (5, 5, 2, 0.15, 0.55, 0.25),
    ("census", "test"): (8, 8, 1, 0.12, 0.5, 0.25),
}

POLYGON_DATASETS = ("boroughs", "neighborhoods", "census")


def polygon_dataset(
    name: str, *, scale: str = "test", extent: float = EXTENT, seed: int = 42
) -> PolygonSet:
    """One of the three NYC-analog polygon datasets at test or bench scale."""
    try:
        nx, ny, depth, amp, decay, jit = _POLYGON_CONFIGS[(name, scale)]
    except KeyError:
        raise ValueError(f"unknown polygon dataset {(name, scale)!r}") from None
    return _lattice_tiling(
        nx, ny, extent, seed, depth, amp, decay, jit, f"{name}-{scale}"
    )


def taxi_points(
    n: int, *, extent: float = EXTENT, seed: int = 7
) -> tuple[np.ndarray, np.ndarray]:
    """Clustered point workload analogous to NYC taxi pick-ups.

    >90% of the paper's taxi points fall in Manhattan plus airport blobs;
    we reproduce that skew with a Gaussian mixture: 87% in a dense vertical
    strip, 7% in two compact blobs, 6% uniform background.
    """
    g = np.random.default_rng(seed)
    kinds = g.choice(4, size=n, p=[0.87, 0.04, 0.03, 0.06])
    x = np.empty(n, np.float64)
    y = np.empty(n, np.float64)
    m = kinds == 0  # Manhattan-like strip
    x[m] = g.normal(0.32 * extent, 0.035 * extent, m.sum())
    y[m] = g.normal(0.55 * extent, 0.16 * extent, m.sum())
    m = kinds == 1  # JFK-like blob
    x[m] = g.normal(0.74 * extent, 0.012 * extent, m.sum())
    y[m] = g.normal(0.22 * extent, 0.012 * extent, m.sum())
    m = kinds == 2  # LGA-like blob
    x[m] = g.normal(0.62 * extent, 0.009 * extent, m.sum())
    y[m] = g.normal(0.6 * extent, 0.009 * extent, m.sum())
    m = kinds == 3  # diffuse background
    x[m] = g.uniform(0, extent, m.sum())
    y[m] = g.uniform(0, extent, m.sum())
    # Clip strictly inside the region: clipping piles out-of-range samples
    # onto the clip value, and an exact 0.0 would sit *on* the region-border
    # polygon edges, where point-in-polygon parity is ill-defined.
    eps = 1e-6 * extent
    return np.clip(x, eps, extent - eps), np.clip(y, eps, extent - eps)


def uniform_points(
    n: int,
    *,
    extent: float = EXTENT,
    mbr: tuple[float, float, float, float] | None = None,
    seed: int = 8,
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform points in the given MBR (default: the whole region)."""
    g = np.random.default_rng(seed)
    x0, y0, x1, y1 = mbr if mbr is not None else (0.0, 0.0, extent, extent)
    eps = 1e-9 * (x1 - x0)
    return g.uniform(x0, x1 - eps, n), g.uniform(y0, y1 - eps, n)


def points_np(kind: str, n: int, *, extent: float = EXTENT, seed: int = 7):
    """Dispatch helper: 'taxi' or 'uniform' -> (x, y) arrays."""
    if kind == "taxi":
        return taxi_points(n, extent=extent, seed=seed)
    if kind == "uniform":
        return uniform_points(n, extent=extent, seed=seed)
    raise ValueError(f"unknown point kind {kind!r}")


def points_df(
    spark: SparkSession,
    kind: str,
    n: int,
    *,
    extent: float = EXTENT,
    seed: int = 7,
    partitions: int | None = None,
) -> DataFrame:
    """Point workload as a Spark DataFrame (pid, x, y).

    The rows are local-checkpointed into the executors' block store, so
    the plan holds a reference to them rather than the rows themselves. A
    DataFrame made from driver-side data is a ``LocalRelation``: every
    query over it (even after ``persist()``) re-plans and ships all rows as
    a literal, which at 1 M points costs more than the join itself.
    """
    x, y = points_np(kind, n, extent=extent, seed=seed)
    pdf = pd.DataFrame({"pid": np.arange(n, dtype=np.int64), "x": x, "y": y})
    df = spark.createDataFrame(pdf)
    if partitions:
        df = df.repartition(partitions)
    return df.localCheckpoint()
