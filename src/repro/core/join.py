"""Spark point-polygon join operators over a broadcast polygon index.

The paper's join (Listing 3) is an index-nested-loop join: probe ACT per
point, emit true hits directly, and either emit candidate hits as-is
(approximate mode, §3.2) or refine them with exact PIP tests (accurate
mode, §3.3); the bundle's mode decides which. Polygons are small and static
(the paper's setting), so the index is built on the driver, by one
covering descent over all polygons (the paper parallelizes the covering
phase over polygons), broadcast to the executors, and probed per partition
in a ``mapInArrow`` kernel (a DataFrame -> DataFrame physical operator; see
DESIGN.md §5 for why a JVM operator is out of scope).

There is one such operator, ``_map_probe``; ``spatial_join`` (the pairs),
``spatial_join_stats`` (the probe counters) and the pushed-down
``count_per_polygon`` (points per polygon) differ only in the batch they
emit for each probed chunk. The pushed-down count is one Spark job of one
stage, run when ``count_per_polygon`` is called: the driver sums the
chunks' per-polygon counts, with no Spark aggregate and no shuffle. The query
path builds no PySpark ``Column``: the input projection is one
``selectExpr``.

A bundle is broadcast once per ``SparkContext`` and the broadcast is
shared by every query on it, so a warm query pays neither the pickling nor
the executors' unpickling again; the broadcast is destroyed when the bundle
is garbage-collected.

The kernel sees only the columns it reads: the input is projected to
``pid, x, y`` or ``x, y`` (cast to long/double) before it crosses into
Python, ``x`` and ``y`` are read as numpy views of the Arrow columns, and
the output batch is built from numpy arrays, with no pandas DataFrame on
either side; the counting and counter kernels import no pandas on the
executors unless an input column holds nulls. Points that are null, not
finite or outside the index extent are rejected by ``probe_batch`` and
never paired. The kernel probes chunks
of at least ``_CHUNK_ROWS`` rows, not Arrow's 10 K-row batches, so the
fixed cost per probe (and, in accurate mode, per refinement call) is paid
a few times per partition instead of once per batch. Unless the session
set it, Spark's Arrow byte cap is lifted to ``Int.MaxValue`` for the
session, so the JVM does not measure each input batch after every row; the
record cap (10 K rows by default) still ends every batch.
"""
from __future__ import annotations

import contextlib
import functools
import os
import sys
import threading
import time
import weakref
import zipimport
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np
import pyarrow as pa
from pyspark import Broadcast, SparkContext
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.pandas.types import from_arrow_schema

from repro.core import cellid
from repro.core.act import build_act
from repro.core.covering import cover_polygons
from repro.core.supercovering import SuperCovering, merge_coverings
from repro.baselines.btree import build_btree
from repro.baselines.sorted_vector import build_sorted_vector
from repro.geometry.polygon import PolygonSet

if TYPE_CHECKING:
    import pandas as pd

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

    The probe operator's kernel calls this when it finishes, so that the
    importers its own first imports re-create in a new worker (the
    bundle's modules, and more during the first probe) are evicted too. A
    worker's first task still pays the re-read.
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
    inside = cellid.in_extent(px, py, bundle.extent)
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


#: Input columns a kernel may read, with the Spark type it reads them as.
_INPUT_TYPES = {"pid": "long", "x": "double", "y": "double"}


#: Spark's Arrow batch caps. Unless the byte cap is ``Int.MaxValue``, the
#: JVM's Arrow writer measures the whole batch after every row it appends.
#: A kernel's input rows are fixed-width (at most 24 B), so the record cap
#: ends each batch long before Spark's default byte cap (64 MiB) could.
_ARROW_MAX_BYTES = "spark.sql.execution.arrow.maxBytesPerBatch"
_ARROW_MAX_RECORDS = "spark.sql.execution.arrow.maxRecordsPerBatch"
_JVM_INT_MAX = "2147483647"


def _lift_arrow_byte_cap(spark: SparkSession) -> None:
    """Set the session's Arrow byte cap to ``Int.MaxValue`` when the session
    left it unset and a positive record cap still bounds every batch.

    Spark reads the cap in each task, when the query runs, so it is set in
    the session rather than for one query; it holds for the session's other
    Arrow operators too.
    """
    conf = spark.conf
    if conf.get(_ARROW_MAX_BYTES, None) is None and int(conf.get(_ARROW_MAX_RECORDS)) > 0:
        conf.set(_ARROW_MAX_BYTES, _JVM_INT_MAX)


def _project(points_df: DataFrame, columns: tuple[str, ...]) -> DataFrame:
    """Only the columns a kernel reads, cast to the types it reads them as,
    so no other column crosses into Python. The probe operator's input is
    built here, so this is where the session's Arrow byte cap is lifted."""
    _lift_arrow_byte_cap(points_df.sparkSession)
    return points_df.selectExpr(*(f"CAST(`{c}` AS {_INPUT_TYPES[c]}) AS {c}" for c in columns))


def _float64(column: pa.Array) -> np.ndarray:
    """A double Arrow column as numpy: a zero-copy view of its buffer when
    it has no nulls; nulls read as NaN, which ``probe_batch`` rejects.

    numpy reads the buffer itself because pyarrow's own conversions
    (``to_numpy``, ``pa.array``) import pandas on their first call, 0.2 s
    in every fresh worker."""
    if column.null_count:
        return column.to_numpy(zero_copy_only=False)
    return np.frombuffer(column.buffers()[1], np.float64, len(column), column.offset * 8)


def _int64(values) -> pa.Array:
    """``values`` as an int64 Arrow array over a numpy buffer, without
    ``pa.array`` (``_float64`` says why)."""
    values = np.ascontiguousarray(values, np.int64)
    return pa.Array.from_buffers(pa.int64(), len(values), [None, pa.py_buffer(values)])


#: Rows the probe kernel probes at once, at least: Arrow's batches (10 K
#: rows by default) are concatenated up to this size. ``_map_probe`` reads
#: it when called, not on the executors.
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


def _map_probe(
    points_df: DataFrame,
    bundle: PolygonIndexBundle,
    columns: tuple[str, ...],
    emit: Callable[..., dict],
    schema: pa.Schema,
) -> DataFrame:
    """The one Spark probe operator: a ``mapInArrow`` over ``columns`` of
    ``points_df`` (``_project``) that runs ``probe_batch`` over the ``x``,
    ``y`` of each chunk of at least ``_CHUNK_ROWS`` rows, in the bundle's
    mode, and emits one ``schema`` batch per chunk, made from the columns
    ``emit(chunk, point_row, poly_id, true_hit, stats)`` returns by name.

    It probes the bundle's one broadcast in this context
    (``_bundle_broadcast``), and each task finally evicts the worker's zip
    importers (``_drop_zip_importers``).
    """
    bc = _bundle_broadcast(points_df.sparkSession.sparkContext, bundle)
    exact = bundle.mode == "accurate"
    chunk_rows = _CHUNK_ROWS

    def kernel(batches):
        try:
            received = bc.value
            for chunk in _chunks(batches, chunk_rows):
                x, y = _float64(chunk.column("x")), _float64(chunk.column("y"))
                out = emit(chunk, *probe_batch(received, x, y, exact))
                yield pa.RecordBatch.from_pydict(out, schema=schema)
        finally:
            _drop_zip_importers()

    return _project(points_df, columns).mapInArrow(kernel, from_arrow_schema(schema))


#: ``spatial_join``'s output: one row per (point, polygon) pair.
_PAIRS = pa.schema([("pid", pa.int64()), ("poly_id", pa.int64()), ("true_hit", pa.bool_())])


def _emit_pairs(chunk, rows, polys, is_true, _stats) -> dict:
    return {"pid": chunk.column("pid").take(rows), "poly_id": polys, "true_hit": is_true}


def spatial_join(
    spark: SparkSession,
    points_df: DataFrame,
    bundle: PolygonIndexBundle,
) -> DataFrame:
    """DataFrame -> DataFrame point-polygon join (pid, poly_id, true_hit).

    ``points_df`` needs ``pid``, ``x`` and ``y`` columns of any numeric
    type; other columns are ignored. The bundle's mode sets the
    refinement: an approx bundle emits its candidate pairs as they are, an
    accurate one keeps those that pass a PIP test.

    It writes ``spark.sql.execution.arrow.maxBytesPerBatch`` to
    ``Int.MaxValue`` in the session when the session has not set it and
    ``maxRecordsPerBatch`` is positive (``_lift_arrow_byte_cap``).

    The returned DataFrame records ``points_df`` and ``bundle``, so that
    ``count_per_polygon`` of it counts in the probe kernel.
    """
    joined = _map_probe(points_df, bundle, ("pid", "x", "y"), _emit_pairs, _PAIRS)
    # Only this object carries them: ``select`` and the like drop them.
    joined._join_inputs = (points_df, bundle)
    return joined


#: ``probe_batch`` counters that ``spatial_join_stats`` sums.
_STATS = ("points", "rejected_points", "true_pairs", "cand_pairs", "pip_tests", "sth_points")

#: ``spatial_join_stats``' kernel output: each chunk's counters and the
#: pairs the join emits for it.
_COUNTERS = pa.schema([(k, pa.int64()) for k in _STATS + ("result_pairs",)])


def _emit_counters(_chunk, rows, _polys, _is_true, stats) -> dict:
    return {**{k: _int64([stats[k]]) for k in _STATS}, "result_pairs": _int64([len(rows)])}


def spatial_join_stats(
    spark: SparkSession,
    points_df: DataFrame,
    bundle: PolygonIndexBundle,
) -> pd.DataFrame:
    """Summed probe counters (points, STH, PIP tests...) of the join, and
    the pairs it emits (``result_pairs``), as one pandas row.

    The paper reports these (e.g. the solely-true-hits metric of Table 7).
    The operator is ``spatial_join``'s over ``x`` and ``y`` only; it emits
    one counter row per chunk, and the driver sums them.
    """
    counters = _map_probe(points_df, bundle, ("x", "y"), _emit_counters, _COUNTERS)
    return counters.toPandas().sum().to_frame().T


#: ``count_per_polygon``'s kernel output: each chunk's distinct polygons
#: and their pair counts.
_COUNTS = pa.schema([("poly_id", pa.int64()), ("n", pa.int64())])


def _emit_counts(n_polygons, _chunk, _rows, polys, _is_true, _stats) -> dict:
    n = np.bincount(polys, minlength=n_polygons)
    ids = np.flatnonzero(n)
    return {"poly_id": _int64(ids), "n": _int64(n[ids])}


def _count_kernel(points_df: DataFrame, bundle: PolygonIndexBundle) -> DataFrame:
    """The pushed-down count's operator: ``spatial_join``'s operator over
    the points' ``x`` and ``y``, emitting each chunk's polygons of at
    least one pair and their pair counts."""
    emit = functools.partial(_emit_counts, len(bundle.pset))
    return _map_probe(points_df, bundle, ("x", "y"), emit, _COUNTS)


def count_per_polygon(join_df: DataFrame) -> DataFrame:
    """The paper's probe-phase measurement: points per polygon, as
    ``poly_id long, n_points long``, without polygons of no point.

    When ``join_df`` is the very DataFrame ``spatial_join`` returned, the
    count runs in the probe kernel, and it runs when this is called: one
    job of one stage (when the points' own plan has no shuffle) passes
    ``spatial_join``'s operator over the points' ``x`` and ``y``
    (``_count_kernel``), each chunk emits its distinct polygons and their
    counts, and the driver collects them and sums them per polygon. The
    driver receives at most one row per distinct polygon per chunk, the
    rows a Spark partial aggregate would shuffle. The returned DataFrame
    holds the sums as local rows, so collecting it runs no job. Nothing is
    cached: each call probes all points again. ``cache()`` and
    ``persist()`` return the join result itself, so a cached join result
    is still counted from the points.

    Any other DataFrame (``spatial_join(...).filter("true_hit")``, a
    ``select`` of it, ...) is grouped by ``poly_id`` and counted as is,
    lazily, like any Spark aggregate.
    """
    inputs = getattr(join_df, "_join_inputs", None)
    if inputs is None:
        return join_df.groupBy("poly_id").count().withColumnRenamed("count", "n_points")
    points_df, bundle = inputs
    counts = _count_kernel(points_df, bundle).toArrow()
    totals = np.zeros(len(bundle.pset), np.int64)
    np.add.at(totals, counts.column("poly_id").to_numpy(), counts.column("n").to_numpy())
    ids = np.flatnonzero(totals)
    summed = pa.table({"poly_id": ids, "n_points": totals[ids]})
    return join_df.sparkSession.createDataFrame(summed)
