"""Spark point-polygon join operators over a broadcast polygon index.

The paper's join (Listing 3) is an index-nested-loop join: probe ACT per
point, emit true hits directly, and either emit candidate hits as-is
(approximate mode, §3.2) or refine them with exact PIP tests (accurate
mode, §3.3). Polygons are small and static (the paper's setting), so the
index is built on the driver, by one covering descent over all polygons
(the paper parallelizes the covering phase over polygons), broadcast to
the executors, and probed per partition in a ``mapInArrow`` kernel (a
DataFrame -> DataFrame physical operator; see DESIGN.md §5 for why a JVM
operator is out of scope).

A bundle is broadcast once per ``SparkContext`` and the broadcast is
shared by every query on it, so a warm query pays neither the pickling nor
the executors' unpickling again; the broadcast is destroyed when the bundle
is garbage-collected.

The kernel sees only the columns it reads: the input is projected to
``pid, x, y`` (cast to long/double) before it crosses into Python, ``x``
and ``y`` are read as numpy views of the Arrow columns, and the output
batch is built from numpy arrays, with no pandas DataFrame on either side.
Points that are null, not finite or outside the index extent are rejected
by ``probe_batch`` and never paired. The kernel probes chunks of at least
``_CHUNK_ROWS`` rows, not Arrow's 10 K-row batches, so the fixed cost per
probe (and, in exact mode, per refinement call) is paid a few times per
partition instead of once per batch.
"""
from __future__ import annotations

import contextlib
import os
import sys
import threading
import time
import weakref
import zipimport
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
from pyspark import Broadcast, SparkContext
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core import cellid
from repro.core.act import build_act
from repro.core.covering import cover_polygons
from repro.core.supercovering import SuperCovering, merge_coverings
from repro.baselines.btree import build_btree
from repro.baselines.sorted_vector import build_sorted_vector
from repro.geometry.polygon import PolygonSet

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
    """Picklable, broadcastable polygon index + refinement geometry.

    A bundle is immutable once built: the joins broadcast it once per
    ``SparkContext`` and reuse that broadcast for every query, so a change
    made to a bundle after its first join would not reach the executors.
    """

    structure: str  # 'act1' | 'act2' | 'act4' | 'lb' | 'btree'
    index: object  # probe_refs(point_ids) -> (row, poly, is_true)
    pset: PolygonSet
    extent: float
    mode: str  # 'approx' | 'accurate'
    precision_m: float | None
    n_cells: int
    build_seconds: dict = field(default_factory=dict)

    def __getstate__(self) -> dict:
        # The cached broadcast (``_broadcast``) stays on the driver: the
        # pickled bundle, and so what executors receive, is only the fields.
        state = self.__dict__.copy()
        state.pop("_broadcast", None)
        return state


def _drop_zip_importers() -> None:
    """Evict the zip importers from ``sys.path_importer_cache``.

    PySpark's worker calls ``importlib.invalidate_caches()`` at the start of
    every task, and on CPython 3.11 that makes each cached
    ``zipimport.zipimporter`` re-read its archive's whole directory: a
    worker holds 16 of them (pyspark.zip, the py4j zip, the spark-core jar,
    one per package subpath), which costs 0.2 s of CPU per task. Evicting
    them leaves nothing for the next task's call to re-read. Modules
    already imported keep their loaders, and a later import from an archive
    re-creates its importer (from zipimport's own directory cache).

    Every Python-worker kernel in this module calls this when it finishes,
    so that the importers its own first imports re-create in a new worker
    (the bundle's modules, and more during the first probe) are evicted
    too. A worker's first task still pays the re-read.
    """
    for path, finder in list(sys.path_importer_cache.items()):
        if isinstance(finder, zipimport.zipimporter):
            del sys.path_importer_cache[path]


def compute_coverings(
    pset: PolygonSet,
    extent: float,
    mode: str,
    precision_m: float | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every polygon's (covering, interior covering) cells, as flat
    reference rows ``(cell_ids, poly_ids, interior_flags)``.

    ``mode='approx'`` computes precision-partition coverings whose boundary
    cells sit at the level implied by ``precision_m``;
    ``mode='accurate'`` computes the coarse budgeted S2-style coverings
    (``ACCURATE_COVERER_CFG``). One descent (``covering.cover_polygons``)
    covers all polygons together; a polygon's rows do not depend on which
    other polygons are covered with it.
    """
    n = len(pset)
    pids = np.arange(n)
    if mode == "approx":
        if precision_m is None:
            raise ValueError("approx mode needs a precision bound")
        level = cellid.min_level_for_precision(precision_m, extent)
        cells, flags, offs = cover_polygons(pset, pids, extent, level, np.inf, True)
        return cells, np.repeat(pids, np.diff(offs)), flags
    if mode != "accurate":
        raise ValueError(f"unknown mode {mode!r}")
    # Job k is polygon k's covering, job n + k its interior covering.
    cfg = ACCURATE_COVERER_CFG
    cells, _, offs = cover_polygons(
        pset,
        np.concatenate([pids, pids]),
        extent,
        np.repeat([cfg["max_covering_level"], cfg["max_interior_level"]], n),
        np.repeat([cfg["max_covering_cells"], cfg["max_interior_cells"]], n),
        np.repeat([True, False], n),
    )
    job = np.repeat(np.arange(2 * n), np.diff(offs))
    return cells, job % n, job >= n


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
    supercov: SuperCovering | None = None,
) -> PolygonIndexBundle:
    """Full index build pipeline: coverings -> super covering -> structure.

    Pass a pre-built (e.g. trained, §3.3.1) ``supercov`` to skip the
    covering phases. ``structure`` and ``mode`` are checked before any
    covering is computed.
    """
    build = _STRUCTURES[structure]
    if mode not in ("approx", "accurate"):
        raise ValueError(f"unknown mode {mode!r}")
    times: dict[str, float] = {}
    if supercov is None:
        t0 = time.perf_counter()
        rows = compute_coverings(pset, extent, mode, precision_m)
        times["coverings"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        supercov = merge_coverings(rows, extent)
        times["supercovering"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    index = build(supercov)
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

    Returns ``(keep_mask, n_pip_tests)``; true hits pass without a test,
    and all candidate pairs are tested in one ``PolygonSet.contains``.
    """
    keep = is_true.copy()
    cand = np.flatnonzero(~is_true)
    keep[cand] = pset.contains(px[rows[cand]], py[rows[cand]], polys[cand])
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


#: Rows the join kernels probe at once, at least: Arrow's batches (10 K
#: rows by default) are concatenated up to this size. ``spatial_join`` and
#: ``spatial_join_stats`` read it when called, not on the executors.
_CHUNK_ROWS = 131072

#: Guards ``_bundle_broadcast``'s check-then-create: queries on one bundle
#: may start from several driver threads.
_BROADCAST_LOCK = threading.Lock()


def _release(sc: SparkContext, bc: Broadcast) -> None:
    """Destroy ``bc``. A stopped context has dropped its executors' blocks
    already, and only the driver's temporary file is left to remove."""
    if sc._jsc is not None:
        bc.destroy()
    else:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(bc._path)


def _bundle_broadcast(sc: SparkContext, bundle: PolygonIndexBundle) -> Broadcast:
    """The one broadcast of ``bundle`` in ``sc``, created on first use.

    It is kept on the bundle, outside its pickled state. It is destroyed
    when the bundle is garbage-collected, and replaced when asked for in
    another context or after its own context has stopped. Until it is
    destroyed, a broadcast keeps a pickled copy of the bundle in Spark's
    temporary directory.
    """
    with _BROADCAST_LOCK:
        held = getattr(bundle, "_broadcast", None)
        if held is not None:
            bc_sc, bc, release = held
            if bc_sc is sc and sc._jsc is not None:
                return bc
            release()
        bc = sc.broadcast(bundle)
        release = weakref.finalize(bundle, _release, sc, bc)
        # At interpreter exit the JVM removes Spark's temporary directory.
        release.atexit = False
        bundle._broadcast = (sc, bc, release)
        return bc


def _chunks(batches: Iterator[pa.RecordBatch], rows: int) -> Iterator[pa.RecordBatch]:
    """The rows of ``batches`` regrouped into batches of at least ``rows``
    rows; the last may be shorter, and none is empty."""
    pending: list[pa.RecordBatch] = []
    n = 0
    for batch in batches:
        if batch.num_rows:
            pending.append(batch)
            n += batch.num_rows
        if n >= rows:
            yield _concat(pending)
            pending, n = [], 0
    if pending:
        yield _concat(pending)


def _concat(batches: list[pa.RecordBatch]) -> pa.RecordBatch:
    """One batch holding the rows of non-empty ``batches``."""
    if len(batches) == 1:
        return batches[0]
    return pa.Table.from_batches(batches).combine_chunks().to_batches()[0]


def _probe_chunks(
    bc: Broadcast, batches: Iterator[pa.RecordBatch], exact: bool, chunk_rows: int
) -> Iterator[tuple]:
    """The body both join kernels share: ``probe_batch`` over the ``x``,
    ``y`` columns of each chunk of ``batches``, yielding
    ``(chunk, point_row, poly_id, true_hit, stats)``."""
    try:
        bundle = bc.value
        for chunk in _chunks(batches, chunk_rows):
            yield chunk, *probe_batch(
                bundle, _float64(chunk.column("x")), _float64(chunk.column("y")), exact
            )
    finally:
        _drop_zip_importers()


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

    The bundle is broadcast on its first join in this context, and every
    later join (and ``spatial_join_stats``) reuses that broadcast, so the
    Python workers keep it unpickled between queries. Each task probes its
    partition in chunks of at least ``_CHUNK_ROWS`` rows, emits one output
    batch per chunk, and finally evicts the worker's zip importers
    (``_drop_zip_importers``), so the next task does not re-read them.
    """
    if exact is None:
        exact = bundle.mode == "accurate"
    bc = _bundle_broadcast(spark.sparkContext, bundle)
    chunk_rows = _CHUNK_ROWS

    def kernel(batches):
        for chunk, rows, polys, is_true, _stats in _probe_chunks(bc, batches, exact, chunk_rows):
            yield pa.RecordBatch.from_arrays(
                [
                    chunk.column("pid").take(rows),
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
    kernel reads only ``x`` and ``y``, and probes the same chunks over the
    same broadcast as ``spatial_join``.
    """
    if exact is None:
        exact = bundle.mode == "accurate"
    bc = _bundle_broadcast(spark.sparkContext, bundle)
    chunk_rows = _CHUNK_ROWS

    def kernel(batches):
        totals = dict.fromkeys(_STATS_COLUMNS, 0)
        for _chunk, rows, _p, _t, stats in _probe_chunks(bc, batches, exact, chunk_rows):
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
