"""Spark point-polygon join operators over a broadcast polygon index.

The paper's join (Listing 3) is an index-nested-loop join: probe ACT per
point, emit true hits directly, and either emit candidate hits as-is
(approximate mode, §3.2) or refine them with exact PIP tests (accurate
mode, §3.3). Polygons are small and static (the paper's setting), so the
index is built on the driver — optionally with the per-polygon covering
phase distributed over Spark, mirroring the paper's parallelized covering
computation — broadcast to the executors, and probed per partition in a
``mapInArrow`` kernel (a DataFrame -> DataFrame physical operator; see
DESIGN.md §5 for why a JVM operator is out of scope).

The kernel sees only the columns it reads: the input is projected to
``pid, x, y`` (cast to long/double) before it crosses into Python, ``x``
and ``y`` are read as numpy views of the Arrow columns, and the output
batch is built from numpy arrays, with no pandas DataFrame on either side.
Points that are null, not finite or outside the index extent are rejected
by ``probe_batch`` and never paired.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core import cellid
from repro.core.act import build_act
from repro.core.covering import cover_polygons
from repro.core.supercovering import SuperCovering, merge_coverings
from repro.baselines.btree import build_btree
from repro.baselines.sorted_vector import build_sorted_vector
from repro.geometry.polygon import PolygonSet, point_in_polygon

#: Default S2RegionCoverer-analog budget (paper §4 "Polygon Approximations":
#: max covering cells=128, max interior cells=256 at Earth scale). Scaled up
#: 2-4x here so the untrained solely-true-hit rate lands in the paper's
#: 72-99% band on our synthetic polygons (calibration in EXPERIMENTS.md).
ACCURATE_COVERER_CFG = {
    "max_covering_cells": 256,
    "max_covering_level": 16,
    "max_interior_cells": 1024,
    "max_interior_level": 13,
}


@dataclass
class PolygonIndexBundle:
    """Picklable, broadcastable polygon index + refinement geometry."""

    structure: str  # 'act1' | 'act2' | 'act4' | 'lb' | 'btree'
    index: object  # probe_refs(point_ids) -> (row, poly, is_true)
    pset: PolygonSet
    extent: float
    mode: str  # 'approx' | 'accurate'
    precision_m: float | None
    n_cells: int
    build_seconds: dict = field(default_factory=dict)


def _cover(
    pset: PolygonSet, pids: np.ndarray, extent: float, mode: str, boundary_level: int | None
) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """``(pid, cell ids, interior flags)`` of each polygon in ``pids``, from
    one descent over them all (``covering.cover_polygons``)."""
    if mode == "approx":
        cells, flags, offs = cover_polygons(pset, pids, extent, boundary_level, np.inf, True)
        return [
            (int(p), cells[offs[k] : offs[k + 1]], flags[offs[k] : offs[k + 1]])
            for k, p in enumerate(pids)
        ]
    # Job k is polygon pids[k]'s covering, job n + k its interior covering.
    n = len(pids)
    cfg = ACCURATE_COVERER_CFG
    cells, _, offs = cover_polygons(
        pset,
        np.concatenate([pids, pids]),
        extent,
        np.repeat([cfg["max_covering_level"], cfg["max_interior_level"]], n),
        np.repeat([cfg["max_covering_cells"], cfg["max_interior_cells"]], n),
        np.repeat([True, False], n),
    )
    out = []
    for k, p in enumerate(pids):
        c, i = cells[offs[k] : offs[k + 1]], cells[offs[n + k] : offs[n + k + 1]]
        out.append((int(p), np.concatenate([c, i]), np.arange(len(c) + len(i)) >= len(c)))
    return out


def compute_coverings(
    pset: PolygonSet,
    extent: float,
    mode: str,
    precision_m: float | None = None,
    spark: SparkSession | None = None,
) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """Per-polygon (covering, interior covering) cells.

    ``mode='approx'`` computes precision-partition coverings whose boundary
    cells sit at the level implied by ``precision_m``;
    ``mode='accurate'`` computes the coarse budgeted S2-style coverings
    (``ACCURATE_COVERER_CFG``). One descent covers all polygons together.
    When ``spark`` is given, the polygon ids are partitioned and each
    partition runs that descent over its polygons (the paper parallelizes
    this phase over polygons too); either way the result has one entry per
    polygon, in id order, and does not depend on how polygons are batched.
    """
    if mode == "approx":
        if precision_m is None:
            raise ValueError("approx mode needs a precision bound")
        boundary_level = cellid.min_level_for_precision(precision_m, extent)
    elif mode == "accurate":
        boundary_level = None
    else:
        raise ValueError(f"unknown mode {mode!r}")

    if spark is None:
        return _cover(pset, np.arange(len(pset)), extent, mode, boundary_level)
    sc = spark.sparkContext
    bc = sc.broadcast(pset)
    return (
        sc.parallelize(range(len(pset)), sc.defaultParallelism * 2)
        .mapPartitions(
            lambda pids: _cover(
                bc.value, np.fromiter(pids, np.int64), extent, mode, boundary_level
            )
        )
        .collect()
    )


_STRUCTURES = {
    "act1": lambda sc: build_act(sc, 1),
    "act2": lambda sc: build_act(sc, 2),
    "act4": lambda sc: build_act(sc, 4),
    "lb": build_sorted_vector,
    "btree": build_btree,
}


def build_index(
    pset: PolygonSet,
    extent: float,
    mode: str = "approx",
    precision_m: float | None = 4.0,
    structure: str = "act4",
    spark: SparkSession | None = None,
    supercov: SuperCovering | None = None,
) -> PolygonIndexBundle:
    """Full index build pipeline: coverings -> super covering -> structure.

    Pass a pre-built (e.g. trained, §3.3.1) ``supercov`` to skip the
    covering phases.
    """
    times: dict[str, float] = {}
    if supercov is None:
        t0 = time.perf_counter()
        covs = compute_coverings(pset, extent, mode, precision_m, spark)
        times["coverings"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        supercov = merge_coverings(covs, extent)
        times["supercovering"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    index = _STRUCTURES[structure](supercov)
    times["structure"] = time.perf_counter() - t0
    return PolygonIndexBundle(
        structure=structure,
        index=index,
        pset=pset,
        extent=extent,
        mode=mode,
        precision_m=precision_m,
        n_cells=supercov.n_cells,
        build_seconds=times,
    )


def refine_candidates(
    px: np.ndarray,
    py: np.ndarray,
    rows: np.ndarray,
    polys: np.ndarray,
    is_true: np.ndarray,
    pset: PolygonSet,
) -> tuple[np.ndarray, int]:
    """Exact PIP refinement of candidate pairs (paper Listing 3, EXACT).

    Returns ``(keep_mask, n_pip_tests)``; true hits pass without a test.
    """
    keep = is_true.copy()
    cand = np.flatnonzero(~is_true)
    if len(cand) == 0:
        return keep, 0
    order = cand[np.argsort(polys[cand], kind="stable")]
    uniq, starts = np.unique(polys[order], return_index=True)
    starts = np.append(starts, len(order))
    for k, poly_id in enumerate(uniq):
        sel = order[starts[k] : starts[k + 1]]
        ex1, ey1, ex2, ey2 = pset.poly_edges(int(poly_id))
        keep[sel] = point_in_polygon(px[rows[sel]], py[rows[sel]], ex1, ey1, ex2, ey2)
    return keep, int(len(cand))


def probe_batch(
    bundle: PolygonIndexBundle,
    px: np.ndarray,
    py: np.ndarray,
    exact: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """One probe+refine batch: (point_row, poly_id, true_hit, stats).

    This is the per-partition kernel, also usable on the driver (the
    paper's single-threaded probe loop). ``point_row`` indexes ``px``/``py``.

    Points that are not finite or lie outside ``[0, extent)`` on either
    axis are rejected before the probe and counted in
    ``stats["rejected_points"]``. The cell grid does not cover them, and
    clipping them into edge cells would pair them with polygons arbitrarily
    far away, breaking the approximate join's precision bound (§3.2).
    """
    px = np.asarray(px, np.float64)
    py = np.asarray(py, np.float64)
    n = len(px)
    inside = (px >= 0) & (px < bundle.extent) & (py >= 0) & (py < bundle.extent)
    kept = None if inside.all() else np.flatnonzero(inside)
    if kept is not None:
        px, py = px[kept], py[kept]
    pt = cellid.cell_from_point(px, py, bundle.extent)
    rows, polys, is_true = bundle.index.probe_refs(pt)
    stats = {
        "points": n,
        "rejected_points": n - len(px),
        "true_pairs": int(is_true.sum()),
        "cand_pairs": int((~is_true).sum()),
        "pip_tests": 0,
    }
    # Solely-true-hit points skip refinement entirely (Table 7's STH):
    # probed points whose probe returned no candidate reference.
    has_cand = np.zeros(len(px), dtype=bool)
    has_cand[rows[~is_true]] = True
    stats["sth_points"] = int((~has_cand).sum())
    if exact:
        keep, n_pip = refine_candidates(px, py, rows, polys, is_true, bundle.pset)
        stats["pip_tests"] = n_pip
        rows, polys, is_true = rows[keep], polys[keep], is_true[keep]
    if kept is not None:
        rows = kept[rows]
    return rows, polys, is_true, stats


#: Output of ``spatial_join``: one row per (point, polygon) pair.
_JOIN_SCHEMA = "pid long, poly_id long, true_hit boolean"
_JOIN_ARROW_SCHEMA = pa.schema(
    [("pid", pa.int64()), ("poly_id", pa.int64()), ("true_hit", pa.bool_())]
)

#: ``probe_batch`` counters that ``spatial_join_stats`` sums, and the
#: pairs the join emits.
_STATS = ("points", "rejected_points", "true_pairs", "cand_pairs", "pip_tests", "sth_points")
_STATS_COLUMNS = _STATS + ("result_pairs",)
_STATS_ARROW_SCHEMA = pa.schema([(k, pa.int64()) for k in _STATS_COLUMNS])

#: Input columns a kernel may read, with the Spark type it reads them as.
_INPUT_TYPES = {"pid": "long", "x": "double", "y": "double"}


def _project(points_df: DataFrame, columns: tuple[str, ...]) -> DataFrame:
    """Only the columns a kernel reads, cast to the types it reads them as,
    so no other column crosses into Python."""
    return points_df.select(*(F.col(c).cast(_INPUT_TYPES[c]).alias(c) for c in columns))


def _float64(column: pa.Array) -> np.ndarray:
    """A double Arrow column as numpy: a zero-copy view when it has no
    nulls; nulls read as NaN, which ``probe_batch`` rejects."""
    if column.null_count:
        column = pc.fill_null(column, np.nan)
    return column.to_numpy()


def _probe_arrow(bundle: PolygonIndexBundle, batch: pa.RecordBatch, exact: bool):
    """``probe_batch`` over the ``x``, ``y`` columns of one Arrow batch."""
    return probe_batch(
        bundle, _float64(batch.column("x")), _float64(batch.column("y")), exact
    )


def spatial_join(
    spark: SparkSession,
    points_df: DataFrame,
    bundle: PolygonIndexBundle,
    exact: bool | None = None,
) -> DataFrame:
    """DataFrame -> DataFrame point-polygon join (pid, poly_id, true_hit).

    ``points_df`` needs ``pid``, ``x`` and ``y`` columns of any numeric
    type; other columns are ignored. ``exact=None`` derives the refinement
    from the bundle mode (approx -> no PIP tests, accurate -> PIP tests on
    candidates).
    """
    if exact is None:
        exact = bundle.mode == "accurate"
    bc = spark.sparkContext.broadcast(bundle)

    def kernel(batches):
        b = bc.value
        for batch in batches:
            rows, polys, is_true, _stats = _probe_arrow(b, batch, exact)
            yield pa.RecordBatch.from_arrays(
                [
                    batch.column("pid").take(rows),
                    pa.array(polys.astype(np.int64, copy=False)),
                    pa.array(is_true),
                ],
                schema=_JOIN_ARROW_SCHEMA,
            )

    return _project(points_df, ("pid", "x", "y")).mapInArrow(kernel, _JOIN_SCHEMA)


def spatial_join_stats(
    spark: SparkSession,
    points_df: DataFrame,
    bundle: PolygonIndexBundle,
    exact: bool | None = None,
) -> pd.DataFrame:
    """Aggregated per-partition probe counters (points, STH, PIP tests...).

    The paper reports these (e.g. the solely-true-hits metric of Table 7);
    each partition emits one counter row, aggregated on the driver. The
    kernel reads only ``x`` and ``y``, over the same Arrow input path as
    ``spatial_join``.
    """
    if exact is None:
        exact = bundle.mode == "accurate"
    bc = spark.sparkContext.broadcast(bundle)

    def kernel(batches):
        totals = dict.fromkeys(_STATS_COLUMNS, 0)
        for batch in batches:
            rows, _p, _t, stats = _probe_arrow(bc.value, batch, exact)
            for k in _STATS:
                totals[k] += stats[k]
            totals["result_pairs"] += len(rows)
        yield pa.RecordBatch.from_pydict(
            {k: [v] for k, v in totals.items()}, schema=_STATS_ARROW_SCHEMA
        )

    schema = ", ".join(f"{k} long" for k in _STATS_COLUMNS)
    pdf = _project(points_df, ("x", "y")).mapInArrow(kernel, schema).toPandas()
    return pdf.sum().to_frame().T


def count_per_polygon(join_df: DataFrame) -> DataFrame:
    """The paper's probe-phase measurement: points per polygon."""
    return join_df.groupBy("poly_id").count().withColumnRenamed("count", "n_points")
