"""Shared point-in-polygon test helpers.

The geometry, join and tiling tests draw their boundary cases from one
generator: points on polygon vertices, on edges (horizontal ones among
them), on quadtree cell borders and corners, plus taxi points. Their truth
comes from the DuckDB crossing-number join ``PIP_JOIN_SQL``, which shares
no code with the numpy geometry.
"""
import duckdb
import numpy as np
import pandas as pd

from repro import synth_data as sd
from repro.core import cellid
from repro.geometry.polygon import PolygonSet
from repro.geometry.sql_oracle import PIP_JOIN_SQL


def inside_polygon(px, py, poly) -> np.ndarray:
    """Which points lie inside the one polygon ``poly``."""
    return PolygonSet([poly]).contains(px, py, np.zeros(len(px), np.int64))


def vertices(pset):
    """``(vx, vy)``: every polygon vertex, in ring order."""
    polys = pset.polygons
    return np.concatenate([p.xs for p in polys]), np.concatenate([p.ys for p in polys])


def _points(pset, g, seed):
    x1, y1, x2, y2 = pset.edge_x1, pset.edge_y1, pset.edge_x2, pset.edge_y2
    vx, vy = vertices(pset)
    t = g.uniform(0, 1, pset.n_edges)
    flat = np.flatnonzero(y1 == y2)
    assert len(flat), "no horizontal edge to test on"
    tx, ty = sd.taxi_points(600, seed=seed)
    cells = cellid.cell_from_point(tx[:200], ty[:200], sd.EXTENT)
    cells = cellid.parent(cells, g.integers(6, 13, len(cells)))
    bx0, by0, bx1, by1 = cellid.cell_bounds(cells, sd.EXTENT)
    px = np.concatenate([
        vx, (x1 + x2) / 2, x1 + t * (x2 - x1), x1[flat] + 0.25 * (x2 - x1)[flat],
        bx0, bx0, (bx0 + bx1) / 2, tx,
    ])
    py = np.concatenate([
        vy, (y1 + y2) / 2, y1 + t * (y2 - y1), y1[flat],
        by0, (by0 + by1) / 2, by1, ty,
    ])
    return px, py


def adversarial_points(pset, seed=0):
    """``(px, py)``: the distinct boundary-case points of ``pset``."""
    px, py = _points(pset, np.random.default_rng(seed), seed)
    xy = np.unique(np.stack([px, py], axis=1), axis=0)
    return xy[:, 0], xy[:, 1]


def adversarial_pairs(pset, seed=0):
    """``(px, py, polys)``: the boundary-case points, each paired with
    every polygon whose MBR holds it and with one random polygon."""
    g = np.random.default_rng(seed)
    px, py = _points(pset, g, seed)
    b = pset.mbrs
    near = (
        (px[:, None] >= b[:, 0]) & (px[:, None] <= b[:, 2])
        & (py[:, None] >= b[:, 1]) & (py[:, None] <= b[:, 3])
    )
    pt, poly = np.nonzero(near)
    pt = np.concatenate([pt, np.arange(len(px))])
    poly = np.concatenate([poly, g.integers(0, len(pset), len(px))])
    return px[pt], py[pt], poly


def points_frame(px, py):
    """Points as the SQL oracle's ``points`` table."""
    return pd.DataFrame({"pid": np.arange(len(px), dtype=np.int64), "x": px, "y": py})


def oracle_contains(px, py, polys, pset):
    """Whether ``(px[i], py[i])`` lies inside polygon ``polys[i]``, by the
    DuckDB crossing-number join ``PIP_JOIN_SQL``."""
    con = duckdb.connect()
    try:
        con.register("points", points_frame(px, py))
        con.register("edges", pset.edges_pdf())
        truth = con.execute(PIP_JOIN_SQL).fetchdf()
    finally:
        con.close()
    inside = np.zeros((len(px), len(pset)), bool)
    inside[truth["pid"].to_numpy(), truth["poly_id"].to_numpy()] = True
    return inside[np.arange(len(px)), np.asarray(polys)]
