"""One run of one workload: inputs, index set-up, queries, checks, metrics."""
from __future__ import annotations

import json
import os
import pickle
import platform
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pandas as pd

from repro import synth_data as sd
from repro.core.join import build_index, compute_coverings, count_per_polygon, spatial_join
from repro.core.supercovering import merge_coverings
from repro.core.training import train_index

from check import check_pairs, count_mismatch, sample_pids, truth_pairs
from layers import LAYER_METRICS, build_report, kernel_layers, operator_layers
from tracing import Tracer

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
#: Warm queries per run, at least, however short ``--seconds`` is; a
#: traced run needs this many traced and as many untraced.
MIN_WARM = {0: 3, 1: 2}
#: Warm-up queries on the oracle sample before timing. A count, not a
#: time: on a loaded host fewer queries would fit in a fixed time, and the
#: JVM would be less warm when timing starts.
WARMUP_QUERIES = 8
#: Index set-ups per untraced run; ``setup_s`` is their median. A third
#: set-up runs only if the first two took less than the budget, so a
#: training workload's run stays within the benchmark's time limit.
SETUP_REPS = 3
SETUP_BUDGET_S = 10
#: Repetitions of each step in the traced layer breakdown (medians).
KERNEL_REPS = 3
OPERATOR_REPS = 2


class Tally:
    """Attempted and failed operations, with what went wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)
        print(f"perfbench: {problem}", file=sys.stderr)


def derive_seeds(seed: int) -> dict[str, int]:
    probe, train, oracle = np.random.SeedSequence(seed).generate_state(3)
    return {"run": seed, "probe_points": int(probe), "train_points": int(train), "oracle_sample": int(oracle)}


def set_up(wl, pset, train_xy, tracer) -> tuple[object, object]:
    """Raw polygons -> broadcastable bundle (``build_index``'s own steps,
    with training inserted before the structure is built)."""
    stats = None
    with tracer.span("setup"):
        with tracer.span("covering"):
            covs = compute_coverings(pset, sd.EXTENT, wl.mode, wl.precision_m)
        with tracer.span("supercovering"):
            sc = merge_coverings(covs, sd.EXTENT)
        if train_xy is not None:
            with tracer.span("training"):
                sc, stats = train_index(sc, pset, *train_xy)
        with tracer.span("act"):
            bundle = build_index(
                pset, sd.EXTENT, mode=wl.mode, precision_m=wl.precision_m, structure="act4", supercov=sc
            )
    return bundle, stats


def query(spark, points, bundle, tracer) -> dict[int, int]:
    """The measured query: points per polygon, collected on the driver."""
    with tracer.span("query"):
        with tracer.span("join.spatial_join"):
            joined = spatial_join(spark, points, bundle)
        with tracer.span("join.count_per_polygon"):
            agg = count_per_polygon(joined)
        with tracer.span("spark.collect"):
            rows = agg.collect()
    return {int(r["poly_id"]): int(r["n_points"]) for r in rows}


def run_queries(spark, points, bundle, tracer, tally, reference, seconds, sides, min_n) -> dict[bool, list[float]]:
    """Closed loop: query for ``seconds`` (and at least ``min_n`` times per
    side), checking every result against ``reference``. ``sides`` says
    whether successive queries are traced; times are kept per side."""
    times: dict[bool, list[float]] = {True: [], False: []}
    deadline = time.perf_counter() + seconds
    i = 0
    # Past the deadline, keep going only until each side has ``min_n``
    # good queries, and give up if queries keep failing.
    while time.perf_counter() < deadline or (
        min(len(times[s]) for s in sides) < min_n and i < 4 * min_n * len(sides)
    ):
        i += 1
        tracer.enabled = sides[i % len(sides)]
        tally.attempted += 1
        try:
            with tracer.run(f"query-{tally.attempted}"):
                t0 = time.perf_counter()
                counts = query(spark, points, bundle, tracer)
                elapsed = time.perf_counter() - t0
        except Exception:
            tally.fail(f"query raised:\n{traceback.format_exc()}")
            continue
        mismatch = count_mismatch(counts, reference)
        if mismatch:
            tally.fail(f"query result changed: {mismatch}")
            continue
        times[tracer.enabled].append(elapsed)
    return times


def machine_and_config(spark, points, wl, args, seeds) -> dict:
    import duckdb
    import pyarrow
    import pyspark

    conf = spark.sparkContext.getConf()
    return {
        "machine": {
            "cores": os.cpu_count(),
            "memory_gib": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 1),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "spark": pyspark.__version__,
            "pyarrow": pyarrow.__version__,
            "numpy": np.__version__,
            "pandas": pd.__version__,
            "duckdb": duckdb.__version__,
        },
        "config": {
            "workload": args.workload,
            "scale": args.scale,
            "seconds": args.seconds,
            "trace": args.trace,
            "master": spark.sparkContext.master,
            "driver_memory": conf.get("spark.driver.memory", "default"),
            "input_partitions": points.rdd.getNumPartitions(),
            "arrow_max_records_per_batch": spark.conf.get("spark.sql.execution.arrow.maxRecordsPerBatch"),
            "shuffle_partitions": spark.conf.get("spark.sql.shuffle.partitions"),
            "seeds": seeds,
            **asdict(wl),
        },
    }


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(spark, wl, args) -> dict:
    tracer = Tracer(enabled=bool(args.trace))
    tally = Tally()
    seeds = derive_seeds(args.seed)
    units = declared_metrics(args.trace)

    with tracer.run("load"), tracer.span("load"):
        pset = sd.polygon_dataset(wl.polygons, scale=args.scale)
        px, py = sd.taxi_points(wl.n_points, seed=seeds["probe_points"])
        train_xy = sd.taxi_points(wl.n_train, seed=seeds["train_points"]) if wl.n_train else None
        points = sd.points_df(spark, "taxi", wl.n_points, seed=seeds["probe_points"]).persist()
        points.count()
    record = machine_and_config(spark, points, wl, args, seeds)

    setup_s: list[float] = []
    reps = 1 if args.trace else SETUP_REPS
    while len(setup_s) < min(reps, 2) or (len(setup_s) < reps and sum(setup_s) < SETUP_BUDGET_S):
        with tracer.run(f"setup-{len(setup_s)}"):
            t0 = time.perf_counter()
            bundle, train_stats = set_up(wl, pset, train_xy, tracer)
            setup_s.append(time.perf_counter() - t0)
    index_mib = len(pickle.dumps(bundle, protocol=pickle.HIGHEST_PROTOCOL)) / 2**20

    # Cold query: the first after set-up pays the broadcast and the start
    # of the Python workers. Its counts are the reference for every query.
    tally.attempted += 1
    with tracer.run("query-0"):
        t0 = time.perf_counter()
        reference = query(spark, points, bundle, tracer)
        cold_s = time.perf_counter() - t0

    # Warm-up: the JVM compiles Spark's per-query planning and scheduling
    # code over roughly the first ten queries, and until then warm-query
    # times drift down by a third. The same query over the small oracle
    # sample warms that code for a fraction of the cost.
    pids = sample_pids(wl.n_points, wl.n_oracle, seeds["oracle_sample"])
    sample = spark.createDataFrame(pd.DataFrame({"pid": pids, "x": px[pids], "y": py[pids]}))
    tally.attempted += 1
    with tracer.run("warmup"):
        sample_counts = query(spark, sample, bundle, tracer)
        run_queries(spark, sample, bundle, tracer, tally, sample_counts, 0, (False,), WARMUP_QUERIES - 1)

    # Warm queries for --seconds. A traced run alternates traced and
    # untraced queries; the gap between them is the tracing overhead.
    sides = (True, False) if args.trace else (False,)
    warm = run_queries(spark, points, bundle, tracer, tally, reference, args.seconds, sides, MIN_WARM[args.trace])
    tracer.enabled = bool(args.trace)
    if not warm[False]:
        raise RuntimeError("no warm query succeeded")
    query_s = statistics.median(warm[False])
    mpts = wl.n_points / query_s / 1e6

    metrics: dict[str, float] = {}
    if args.trace:
        metrics.update(build_report(bundle))
        names = tracer.self_by_name()
        metrics["covering.s"] = names["covering"]
        metrics["supercovering.s"] = names["supercovering"]
        metrics["training.s"] = names.get("training", 0.0)
        metrics["training.rounds"] = train_stats.rounds if train_stats else 0
        metrics["training.cells_refined"] = train_stats.cells_refined if train_stats else 0
        metrics["act.build_s"] = names["act"]
        tally.attempted += 1
        with tracer.run("kernel"):
            kmetrics, kcounts = kernel_layers(bundle, px, py, wl.mode == "accurate", tracer, KERNEL_REPS)
        metrics.update(kmetrics)
        mismatch = count_mismatch({k: int(c) for k, c in enumerate(kcounts) if c}, reference)
        if mismatch:
            tally.fail(f"driver kernel vs Spark: {mismatch}")
        with tracer.run("operator"):
            metrics.update(operator_layers(spark, points, bundle, tracer, OPERATOR_REPS))
        metrics["join.aggregate_s"] = query_s - metrics["join.operator_s"]
        metrics["trace.mpts_per_s"] = wl.n_points / statistics.median(warm[True]) / 1e6
        metrics["trace.overhead_mpts_per_s"] = metrics["trace.mpts_per_s"] - mpts

    # Independent check on a sample of points: the join's pairs against
    # the DuckDB SQL oracle (and the precision bound in approximate mode).
    tally.attempted += 1
    fp_frac = None
    with tracer.run("check"), tracer.span("check"):
        try:
            rows = spatial_join(spark, sample, bundle).select("pid", "poly_id").collect()
            got = {(int(r["pid"]), int(r["poly_id"])) for r in rows}
            result = check_pairs(got, truth_pairs(px, py, pids, pset), px, py, pset, wl.precision_m)
        except Exception:
            tally.fail(f"oracle check raised:\n{traceback.format_exc()}")
        else:
            fp_frac = result.fp_frac
            for problem in result.problems:
                tally.fail(f"oracle check: {problem}")
            # The measured query's aggregate over the sample must agree with
            # the checked pairs.
            mismatch = count_mismatch(sample_counts, dict(Counter(poly for _, poly in got)))
            if mismatch:
                tally.fail(f"count_per_polygon on the sample vs its pairs: {mismatch}")

    if not args.trace:
        metrics = {
            "mpts_per_s": mpts,
            "setup_s": statistics.median(setup_s),
            "cold_query_s": cold_s,
            "index_mib": index_mib,
            "pair_precision": 1.0 - (fp_frac if fp_frac is not None else 1.0),
        }
    missing = units.keys() - metrics.keys()
    if missing:
        raise RuntimeError(f"metrics declared in BENCHMARK.json but not measured: {sorted(missing)}")

    record.update(
        {
            "attempted": tally.attempted,
            "failed": tally.failed,
            "error_rate": tally.failed / tally.attempted,
            "problems": tally.problems,
            "fp_frac": fp_frac,
            "oracle_points": len(pids),
            "warm_query_s": warm[False],
            "traced_query_s": warm[True],
            "setup_s": setup_s,
            "metrics": {
                k: {"value": v, "unit": units[k], **_label(k)} for k, v in metrics.items() if k in units
            },
            "span_self_s": tracer.self_by_name(),
            "spans": tracer.as_records(),
        }
    )
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    _print_summary(record, args)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def _label(name: str) -> dict:
    if name not in LAYER_METRICS:
        return {}
    layer, kind, moves = LAYER_METRICS[name]
    return {"layer": layer, "kind": kind, "moves": moves}


def _print_summary(record: dict, args) -> None:
    c, m = record["config"], record["machine"]
    print(
        f"# machine: {m['cores']} cores, {m['memory_gib']} GiB, Spark {m['spark']}, PyArrow {m['pyarrow']}, "
        f"numpy {m['numpy']}, pandas {m['pandas']}, Python {m['python']}"
    )
    print(
        f"# {args.workload} seed={args.seed} trace={args.trace} scale={args.scale}: "
        f"{c['n_points']} points, master {c['master']}, {c['input_partitions']} input partitions, "
        f"arrow batch {c['arrow_max_records_per_batch']}"
    )
    print(
        f"# queries: {len(record['warm_query_s'])} warm untraced, {len(record['traced_query_s'])} warm traced; "
        f"error_rate {record['error_rate']:.4g} ({record['failed']}/{record['attempted']}); "
        f"fp_frac {record['fp_frac']} on {record['oracle_points']} sampled points"
    )
    for name, m in record["metrics"].items():
        label = f"  [{m['layer']}, {m['kind']}]" if "kind" in m else ""
        print(f"  {name:28s} {m['value']:>14.6g} {m['unit']}{label}")
    if args.trace:
        print("# span self time (s), summed by name:")
        for name, s in sorted(record["span_self_s"].items(), key=lambda kv: -kv[1]):
            print(f"  {name:28s} {s:>14.6g}")
