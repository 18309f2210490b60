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

There is one such operator, ``_map_probe``; ``spatial_join`` (the pairs)
and the pushed-down ``count_per_polygon`` (points per polygon, and the
join's ``probe_batch`` counters from the same pass, as in the paper's probe
loop) differ only in the batch they emit for each probed chunk. The
pushed-down count is one Spark job of one stage, run when
``count_per_polygon`` is called: the driver sums the chunks' counts and
counters, with no Spark aggregate and no shuffle. The query path builds no
PySpark ``Column``: the input projection is one ``selectExpr``.

A bundle is broadcast once per ``SparkContext`` and the broadcast is
shared by every query on it, so a warm query pays neither the pickling nor
the executors' unpickling again; the broadcast is destroyed when the bundle
is garbage-collected. Likewise the operator is prepared once per (points
DataFrame, bundle, emitted batch) and reused by later calls: a repeated
query reuses its plan, and each run still probes every point.

From the second count on a persisted points DataFrame (the first reuse
of the count's operator, the one over ``x, y``), the kernel reads a
persisted packed copy of the points' ``x, y``: binary rows, each the
Arrow IPC stream of a slice of points, opened without a copy. Spark's
Arrow writer then writes one value per slice, not one per point and
column, which was most of the JVM's time in a warm query. The copy costs
16 B per point on top of the persisted points. A slice holds as many
points as keep a batch of the session's record cap of rows within the
2 GiB a binary Arrow vector holds (``_packed_rows``); without a positive
record cap the points are read as rows. The copy is unpersisted when a
join finds the points unpersisted, or when the points are
garbage-collected. The first query reads rows, so a one-shot job pays no
extra pass over the points, and ``spatial_join``'s pairs always read rows.

The kernel sees only the columns it reads: the input is projected to
``pid, x, y`` or ``x, y`` (cast to long/double) before it crosses into
Python, ``x`` and ``y`` are read as numpy views of the Arrow columns (a
null reads as NaN), and the output batch is built from numpy arrays, with
no pandas DataFrame on either side; the kernels import no pandas on the
executors. Points that are null, not finite or outside the index extent
are rejected by ``probe_batch`` and never paired. The kernel probes chunks
of at least ``_CHUNK_ROWS`` rows, not Arrow's 10 K-row batches, so the
fixed cost per probe (and, in accurate mode, per refinement call) is paid
a few times per partition instead of once per batch. Unless the session
set it, Spark's Arrow byte cap is lifted to ``Int.MaxValue`` for the
session, so the JVM does not measure each input batch after every row; the
record cap (10 K rows by default) still ends every batch.
"""
from __future__ import annotations

import contextlib
import os
import sys
import threading
import time
import weakref
import zipimport
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
from pyspark import Broadcast, SparkContext
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.pandas.serializers import ArrowStreamSerializer
from pyspark.sql.pandas.types import from_arrow_schema

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
        # The cached broadcast (``_broadcast``) and the prepared operators
        # (``_operators``) stay on the driver: the pickled bundle, and so
        # what executors receive, is only the fields.
        state = self.__dict__.copy()
        state.pop("_broadcast", None)
        state.pop("_operators", None)
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
#: ends each batch long before Spark's default byte cap (64 MiB) could; a
#: packed copy's rows are sized by the record cap too (``_packed_rows``).
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
    so no other column crosses into Python."""
    return points_df.selectExpr(*(f"CAST(`{c}` AS {_INPUT_TYPES[c]}) AS {c}" for c in columns))


def _float64(column: pa.Array) -> np.ndarray:
    """A double Arrow column as numpy: a zero-copy view of its buffer, or
    a copy with NaN, which ``probe_batch`` rejects, for its nulls. (A
    ``coalesce`` in ``_project`` would add a Spark ``Project`` over every
    row read.)

    numpy reads the buffers itself because pyarrow's own conversions
    (``to_numpy``, ``pa.array``) import pandas on their first call, 0.2 s
    in every fresh worker."""
    values = np.frombuffer(column.buffers()[1], np.float64, len(column), column.offset * 8)
    if column.null_count:
        valid = np.unpackbits(np.frombuffer(column.buffers()[0], np.uint8), bitorder="little")
        values = np.where(valid[column.offset : column.offset + len(column)], values, np.nan)
    return values


def _int64(values) -> pa.Array:
    """``values`` as an int64 Arrow array over a numpy buffer, without
    ``pa.array`` (``_float64`` says why)."""
    values = np.ascontiguousarray(values, np.int64)
    return pa.Array.from_buffers(pa.int64(), len(values), [None, pa.py_buffer(values)])


def _bools(mask: np.ndarray) -> pa.Array:
    """A boolean numpy mask as a bool Arrow array, without ``pa.array``."""
    bits = np.packbits(mask, bitorder="little")
    return pa.Array.from_buffers(pa.bool_(), len(mask), [None, pa.py_buffer(bits)])


#: Rows the probe kernel probes at once, at least: Arrow's batches (10 K
#: rows by default), or a packed copy's slices, are concatenated up to this
#: size. ``_map_probe`` reads it when it builds an operator, not on the
#: executors.
_CHUNK_ROWS = 131072

#: The columns a packed copy holds: those of the count's kernel.
_PACKED_COLUMNS = ("x", "y")

#: A packed row's bytes, at most: its IPC stream's headers (368 B for
#: ``x, y``), then two doubles per point and, when a column has nulls, its
#: validity bits.
_PACKED_HEADER_BYTES = 512
_PACKED_POINT_BYTES = 17

#: Spark's Arrow writer puts a batch of packed rows in one binary vector,
#: and Arrow Java refuses a binary vector of more than ``Int.MaxValue``
#: bytes of data (its offsets are 32-bit).
_PACKED_BATCH_BYTES = 2**31 - 1

#: Guards the check-then-create of ``_bundle_broadcast``, ``_packed`` and
#: ``_map_probe``: queries on one bundle or one points DataFrame may start
#: from several driver threads. Reentrant: ``_map_probe`` calls the others.
_CACHE_LOCK = threading.RLock()


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
    with _CACHE_LOCK:
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


def _pack(chunk: pa.RecordBatch) -> pa.RecordBatch:
    """``chunk`` as one row of a packed copy: its Arrow IPC stream, in a
    binary ``chunk`` column."""
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, chunk.schema) as writer:
        writer.write_batch(chunk)
    data = sink.getvalue()
    offsets = pa.py_buffer(np.array([0, data.size], np.int32))
    return pa.RecordBatch.from_arrays([pa.Array.from_buffers(pa.binary(), 1, [None, offsets, data])], ["chunk"])


def _unpacked(batches: Iterator[pa.RecordBatch]) -> Iterator[pa.RecordBatch]:
    """The slices that the rows of a packed copy's ``batches`` hold, read
    from Spark's buffers without a copy."""
    for batch in batches:
        packed = batch.column(0)
        for i in range(batch.num_rows):
            yield pa.ipc.open_stream(packed[i].as_buffer()).read_next_batch()


def _packed_rows(spark: SparkSession) -> int:
    """Points per row of a packed copy such that a batch of the session's
    record cap of rows fits in ``_PACKED_BATCH_BYTES``; 0 when no positive
    record cap bounds a batch, or no point would fit."""
    records = int(spark.conf.get(_ARROW_MAX_RECORDS))
    if records <= 0:
        return 0
    return max(0, (_PACKED_BATCH_BYTES // records - _PACKED_HEADER_BYTES) // _PACKED_POINT_BYTES)


def _persisted(df: DataFrame) -> bool:
    """Whether Spark's cache holds ``df``'s plan, at any storage level."""
    return df._jdf.storageLevel().isValid()


def _unpersist(df: DataFrame) -> None:
    """Unpersist ``df`` unless its context has stopped, which dropped the
    cache already."""
    if df.sparkSession.sparkContext._jsc is not None:
        df.unpersist()


def _packed(points_df: DataFrame, persisted: bool, make: bool) -> DataFrame | None:
    """The packed copy of ``points_df``'s ``x, y`` while the points are
    ``persisted``: the one made before for the session's record cap, else a
    new one if ``make``. Any other copy of theirs is unpersisted.

    A packed copy is a persisted DataFrame of binary rows, each the Arrow
    IPC stream (``_pack``) of a slice of at most ``_packed_rows`` points of
    one Arrow batch, filled by the first job that reads it. A kernel reads
    the slices as they are (``_unpacked``), so Spark's Arrow writer writes
    one value per slice instead of one per point and column. It is kept
    on the points DataFrame (``_packed``), with its slice size and the
    finalizer that unpersists it when the points are garbage-collected.
    """
    rows = _packed_rows(points_df.sparkSession) if persisted else 0
    held = points_df.__dict__.get("_packed")
    if held is not None and (held[0] != rows or not _persisted(held[1])):
        points_df.__dict__.pop("_packed")[2]()
        held = None
    if held is None and rows and make:

        def pack(batches):
            for batch in batches:
                for start in range(0, batch.num_rows, rows):
                    yield _pack(batch.slice(start, rows))

        packed = _project(points_df, _PACKED_COLUMNS).mapInArrow(pack, "chunk binary").persist()
        release = weakref.finalize(points_df, _unpersist, packed)
        # At interpreter exit the JVM drops the cache with the context.
        release.atexit = False
        held = points_df._packed = (rows, packed, release)
    return held[1] if held else None


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

    The operator is prepared once per (points, bundle, ``emit``) and
    returned again by later calls, so a repeated query reuses its plan;
    each run still probes every point. It is kept on the bundle, keyed
    weakly by the points, and it references neither. When a later call
    of the count's operator finds the points persisted, it is rebuilt
    once over their packed ``x, y`` (``_packed``), made then; a first
    call reads a packed copy only if one exists already. The operator is
    rebuilt when the points' persistence, their packed copy, the bundle's
    broadcast or ``_CHUNK_ROWS`` has changed since it was built. Each call
    lifts the Arrow byte cap (``_lift_arrow_byte_cap``); Spark reads both
    caps when the operator runs.

    It probes the bundle's one broadcast in this context
    (``_bundle_broadcast``), and each task finally evicts the worker's zip
    importers (``_drop_zip_importers``).
    """
    spark = points_df.sparkSession
    _lift_arrow_byte_cap(spark)
    with _CACHE_LOCK:
        bc = _bundle_broadcast(spark.sparkContext, bundle)
        built = bundle.__dict__.setdefault("_operators", weakref.WeakKeyDictionary())
        held = built.setdefault(points_df, {}).get(emit)
        persisted = _persisted(points_df)
        packs = columns == _PACKED_COLUMNS
        packed = _packed(points_df, persisted, make=packs and held is not None)
        if not packs:
            packed = None
        key = (bc, persisted, packed, _CHUNK_ROWS)
        if held is not None and held[0] == key:
            return held[1]
        exact = bundle.mode == "accurate"
        chunk_rows = _CHUNK_ROWS
        if packed is None:
            source, read = _project(points_df, columns), iter
        else:
            source, read = packed, _unpacked

        def kernel(batches):
            try:
                received = bc.value
                for chunk in _chunks(read(batches), chunk_rows):
                    x, y = _float64(chunk.column("x")), _float64(chunk.column("y"))
                    out = emit(chunk, *probe_batch(received, x, y, exact))
                    yield pa.RecordBatch.from_pydict(out, schema=schema)
            finally:
                _drop_zip_importers()

        operator = source.mapInArrow(kernel, from_arrow_schema(schema))
        built[points_df][emit] = (key, operator)
        return operator


#: ``spatial_join``'s output: one row per (point, polygon) pair.
_PAIRS = pa.schema([("pid", pa.int64()), ("poly_id", pa.int64()), ("true_hit", pa.bool_())])


def _emit_pairs(chunk, rows, polys, is_true, _stats) -> dict:
    pid = chunk.column("pid")
    if pid.null_count:  # null pids stay null; only they import pyarrow.compute
        pid = pid.take(_int64(rows))
    else:
        pid = _int64(np.frombuffer(pid.buffers()[1], np.int64, len(pid), pid.offset * 8)[rows])
    return {"pid": pid, "poly_id": _int64(polys), "true_hit": _bools(is_true)}


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

    Each call returns a new DataFrame over one plan prepared for
    (``points_df``, ``bundle``) on first use. The pairs are always probed
    from the points' rows; only the count reads a packed copy of persisted
    points.

    The returned DataFrame records ``points_df`` and ``bundle``, so that
    ``count_per_polygon`` of it counts in the probe kernel.
    """
    operator = _map_probe(points_df, bundle, ("pid", "x", "y"), _emit_pairs, _PAIRS)
    # A new DataFrame over the prepared plan, and only it carries the
    # inputs (``select`` and the like drop them): the operator kept on the
    # bundle must not keep the bundle or the points alive.
    joined = DataFrame(operator._jdf, operator.sparkSession)
    joined._join_inputs = (points_df, bundle)
    return joined


#: ``probe_batch`` counters, which ``count_per_polygon`` sums into ``join_stats``.
_STATS = ("points", "rejected_points", "true_pairs", "cand_pairs", "pip_tests", "sth_points")

#: ``count_per_polygon``'s kernel output: each chunk's distinct polygons and
#: their pair counts, then its counters, ``_STATS[k]`` as ``poly_id`` ``-1 - k``
#: (polygon ids are at least 0).
_COUNTS = pa.schema([("poly_id", pa.int64()), ("n", pa.int64())])
_STAT_IDS = -1 - np.arange(len(_STATS))


def _emit_counts(_chunk, _rows, polys, _is_true, stats) -> dict:
    n = np.bincount(polys)
    ids = np.flatnonzero(n)
    counters = [stats[k] for k in _STATS]
    return {"poly_id": _int64(np.r_[ids, _STAT_IDS]), "n": _int64(np.r_[n[ids], counters])}


def _count_kernel(points_df: DataFrame, bundle: PolygonIndexBundle) -> DataFrame:
    """The pushed-down count's operator: ``spatial_join``'s operator over
    the points' ``x`` and ``y``, emitting each chunk's polygons of at
    least one pair, their pair counts and the chunk's counters."""
    return _map_probe(points_df, bundle, ("x", "y"), _emit_counts, _COUNTS)


def _local_rows(spark: SparkSession, batch: pa.RecordBatch) -> DataFrame:
    """``batch`` as a DataFrame that holds its rows in its plan, so
    collecting it runs no job: PySpark's ``createDataFrame`` of an Arrow
    table without its split by the Arrow record cap, which raises for a cap
    below 1. (Python rows would be scanned from an RDD, in a job.)"""
    jvm = spark._jvm
    rows = spark.sparkContext._serialize_to_jvm(
        [batch], ArrowStreamSerializer(), jvm.PythonSQLUtils.readArrowStreamFromFile, jvm.ArrowIteratorServer
    )
    schema = from_arrow_schema(batch.schema).json()
    return DataFrame(jvm.PythonSQLUtils.toDataFrame(rows, schema, spark._jsparkSession), spark)


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
    holds the sums as local rows (``_local_rows``), so collecting it runs
    no job. No result is cached: each call probes all points again,
    through one counting operator prepared for (points, bundle) on its
    first count. From the second count on persisted points, that operator
    reads a packed copy of their ``x, y`` (16 B per point; ``_packed``),
    filled by the count that makes it; the first count reads rows.
    ``cache()`` and ``persist()`` return the join result itself, so a
    cached join result is still counted from the points.

    The same pass counts what the join did: the result's ``join_stats`` is
    a dict of the chunks' summed ``probe_batch`` counters (ints) and
    ``result_pairs``, the pairs the join emits, which the counts sum to.

    Any other DataFrame (``spatial_join(...).filter("true_hit")``, a
    ``select`` of it, ...) is grouped by ``poly_id`` and counted as is,
    lazily, like any Spark aggregate, and carries no ``join_stats``.
    """
    inputs = getattr(join_df, "_join_inputs", None)
    if inputs is None:
        return join_df.groupBy("poly_id").count().withColumnRenamed("count", "n_points")
    points_df, bundle = inputs
    counts = _count_kernel(points_df, bundle).toArrow()
    # The rows of id i sum at n_stats + i: the counters first, then the polygons.
    n_stats = len(_STATS)
    sums = np.zeros(n_stats + len(bundle.pset), np.int64)
    np.add.at(sums, counts.column("poly_id").to_numpy() + n_stats, counts.column("n").to_numpy())
    totals = sums[n_stats:]
    ids = np.flatnonzero(totals)
    summed = _local_rows(join_df.sparkSession, pa.record_batch({"poly_id": ids, "n_points": totals[ids]}))
    summed.join_stats = {**dict(zip(_STATS, sums[n_stats + _STAT_IDS].tolist())), "result_pairs": int(totals.sum())}
    return summed
