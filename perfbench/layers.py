"""Per-layer measurements for the traced run.

Every function here calls a module's public functions inside spans, so a
layer's time is the span's duration and its work is counted at the same
boundary. Each metric is labelled *measured* (read off a span, a counter
or a data structure) or *derived* (computed from other quantities, such as
edge counts per polygon or a difference of two medians); ``LAYER_METRICS``
holds the label, the layer and the end-to-end metric it should move.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

from repro.core.act import ActIndex
from repro.core.cellid import cell_from_point
from repro.core.join import PolygonIndexBundle, probe_batch, refine_candidates, spatial_join
from repro.core.values import decode_entries

#: ACT4 consumes 4 quadtree levels per trie level, so levels 1..30 sit at
#: trie depths 0..7.
MAX_TRIE_DEPTH = 7

#: layer -> (end-to-end metrics it should move, {metric: measured | derived}).
LAYERS: dict[str, tuple[str, dict[str, str]]] = {
    "build": (
        "setup_s on approx-nbhd-taxi and trained-nbhd-taxi; index_mib on all three",
        {
            "covering.s": "measured",
            "supercovering.s": "measured",
            "training.s": "measured",
            "training.rounds": "measured",
            "training.cells_refined": "measured",
            "act.build_s": "measured",
            "act.cells": "measured",
            "act.nodes": "measured",
            **{f"act.nodes_d{d}": "measured" for d in range(MAX_TRIE_DEPTH + 1)},
            "act.slot_occupancy": "measured",
            "act.entries_mib": "measured",
            "act.lookup_mib": "measured",
        },
    ),
    "kernel": (
        "mpts_per_s only a little on approx-nbhd-taxi: the probe is not the bottleneck",
        {
            "cellid.ns_per_pt": "measured",
            "act.probe_ns_per_pt": "measured",
            "act.depth_mean": "measured",
            "values.decode_ns_per_pt": "measured",
        },
    ),
    "refinement": (
        "mpts_per_s on exact-boroughs-taxi; moderately on trained-nbhd-taxi; not on approx-nbhd-taxi",
        {
            "join.refine_ns_per_pt": "measured",
            "join.kernel_ns_per_pt": "measured",
            "join.pip_tests_per_pt": "measured",
            "join.pip_edges_per_pt": "derived",  # from PolygonSet edge counts
            "join.pip_yield": "measured",
            "join.sth_frac": "measured",
            "join.cand_pairs_per_pt": "measured",
        },
    ),
    "operator": (
        "mpts_per_s and cold_query_s on approx-nbhd-taxi and trained-nbhd-taxi; barely on exact-boroughs-taxi",
        {
            "spark.scan_s": "measured",
            "spark.arrow_floor_s": "measured",
            "join.broadcast_s": "measured",
            "join.operator_s": "measured",
            "join.aggregate_s": "derived",  # median query minus median operator
            "join.result_rows": "measured",
            "spark.partitions": "measured",
        },
    ),
    "trace": (
        "nothing: the cost of tracing itself",
        {
            "trace.mpts_per_s": "measured",
            "trace.overhead_mpts_per_s": "derived",  # traced minus untraced
        },
    ),
}

#: metric -> (layer, measured | derived, end-to-end metrics it should move).
LAYER_METRICS = {
    name: (layer, kind, moves) for layer, (moves, kinds) in LAYERS.items() for name, kind in kinds.items()
}


def nodes_per_depth(index: ActIndex) -> list[int]:
    """Trie nodes at each depth below the root, walked from ``entries``."""
    fanout = index.fanout
    out = []
    level = np.zeros(1, np.int64)  # node 0 is the root
    while len(level):
        out.append(len(level))
        slots = index.entries.reshape(-1, fanout)[level].ravel()
        ptr = slots[(slots != 0) & ((slots & 3) == 0)]
        level = (ptr >> 2) - 1
    return out


def build_report(bundle: PolygonIndexBundle) -> dict[str, float]:
    """Index shape and memory, read off the built ``ActIndex``."""
    index = bundle.index
    if not isinstance(index, ActIndex):
        raise TypeError(f"build report needs an ACT, got {type(index).__name__}")
    depths = nodes_per_depth(index)
    if len(depths) > MAX_TRIE_DEPTH + 1:
        raise ValueError(f"trie has {len(depths)} levels, more than ACT4 allows")
    out = {
        "act.cells": bundle.n_cells,
        "act.nodes": index.n_nodes,
        "act.slot_occupancy": float(np.count_nonzero(index.entries)) / len(index.entries),
        "act.entries_mib": index.entries.nbytes / 2**20,
        "act.lookup_mib": index.lookup_table.nbytes / 2**20,
    }
    for d in range(MAX_TRIE_DEPTH + 1):
        out[f"act.nodes_d{d}"] = depths[d] if d < len(depths) else 0
    return out


def _timed(tracer, name: str, fn, reps: int):
    """Run ``fn`` ``reps`` times in spans; return (last result, median s)."""
    times = []
    for _ in range(reps):
        with tracer.span(name):
            t0 = time.perf_counter()
            result = fn()
            times.append(time.perf_counter() - t0)
    return result, statistics.median(times)


def kernel_layers(
    bundle: PolygonIndexBundle, px: np.ndarray, py: np.ndarray, exact: bool, tracer, reps: int
) -> tuple[dict[str, float], np.ndarray]:
    """Single-thread driver kernel over all the workload's points.

    Times each step of ``probe_batch`` on its own (cell id, ACT probe,
    entry decode, PIP refinement), then ``probe_batch`` as one call.
    Returns the metrics and the kernel's per-polygon counts.
    """
    n = len(px)
    pset = bundle.pset
    with tracer.span("kernel"):
        pt, t_cell = _timed(tracer, "cellid.cell_from_point", lambda: cell_from_point(px, py, bundle.extent), reps)
        (entries, depths), t_probe = _timed(tracer, "act.probe", lambda: bundle.index.probe(pt), reps)
        (rows, polys, is_true), t_decode = _timed(
            tracer, "values.decode_entries", lambda: decode_entries(entries, bundle.index.lookup_table), reps
        )
        cand = ~is_true
        n_pip = 0
        kept = 0
        t_refine = 0.0
        pip_edges = 0
        if exact:
            # Refinement dominates on complex polygons: one repetition.
            (keep, n_pip), t_refine = _timed(
                tracer, "join.refine_candidates",
                lambda: refine_candidates(px, py, rows, polys, is_true, pset), 1,
            )
            kept = int((keep & cand).sum())
            pip_edges = int(np.diff(pset.edge_offsets)[polys[cand]].sum())
        (k_rows, k_polys, _t, stats), t_kernel = _timed(
            tracer, "join.probe_batch", lambda: probe_batch(bundle, px, py, exact), 1
        )
    counts = np.bincount(k_polys, minlength=len(pset))
    ns = 1e9 / n
    metrics = {
        "cellid.ns_per_pt": t_cell * ns,
        "act.probe_ns_per_pt": t_probe * ns,
        "act.depth_mean": float(depths[depths >= 0].mean()) if (depths >= 0).any() else 0.0,
        "values.decode_ns_per_pt": t_decode * ns,
        "join.refine_ns_per_pt": t_refine * ns,
        "join.kernel_ns_per_pt": t_kernel * ns,
        "join.pip_tests_per_pt": stats["pip_tests"] / n,
        "join.pip_edges_per_pt": pip_edges / n,
        "join.pip_yield": kept / n_pip if n_pip else 0.0,
        "join.sth_frac": stats["sth_points"] / n,
        "join.cand_pairs_per_pt": stats["cand_pairs"] / n,
    }
    return metrics, counts


def operator_layers(spark, points, bundle: PolygonIndexBundle, tracer, reps: int) -> dict[str, float]:
    """Spark operator floor and join cost on the persisted points.

    The JVM-only scan and the identity ``mapInPandas`` bound the join from
    below; the broadcast is what ``spatial_join`` repeats on every call.
    """
    sc = spark.sparkContext

    def identity(batches):  # nested, so Spark ships it by value
        yield from batches

    def broadcast():
        sc.broadcast(bundle).destroy()

    with tracer.span("operator"):
        _, t_scan = _timed(tracer, "spark.scan", points.count, reps)
        _, t_floor = _timed(
            tracer, "spark.arrow_floor", lambda: points.mapInPandas(identity, points.schema).count(), reps
        )
        _, t_bc = _timed(tracer, "join.broadcast", broadcast, reps)
        rows, t_op = _timed(tracer, "join.operator", lambda: spatial_join(spark, points, bundle).count(), reps)
    return {
        "spark.scan_s": t_scan,
        "spark.arrow_floor_s": t_floor,
        "join.broadcast_s": t_bc,
        "join.operator_s": t_op,
        "join.result_rows": rows,
        "spark.partitions": points.rdd.getNumPartitions(),
    }
