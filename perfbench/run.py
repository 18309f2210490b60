"""Point-polygon join benchmark: one workload, one run.

    python3 perfbench/run.py --workload approx-nbhd-taxi --seed 1 --seconds 10 --trace 0

One client runs one query at a time (a closed loop) on a local Spark
session: ``count_per_polygon(spatial_join(spark, points, bundle)).collect()``
over a persisted points DataFrame from ``synth_data.points_df``. The seed
fixes the point streams (probe points, and training points where the
workload trains); the polygon datasets are the repository's fixed ones.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json;
``--trace 1`` runs the layers one by one inside spans and reports the
per-layer metrics instead. Every run checks its results against the DuckDB
SQL oracle on a sample of points, and checks that every query returns the
same per-polygon counts. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. Spans, the
configuration and every metric with its label go to
``perfbench/out/<workload>-seed<seed>-trace<0|1>.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import shlex
import shutil
import subprocess
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Spark master: one executor thread per core of the reference 4-core box.
CORES = 4
DRIVER_MEMORY = "2g"


@dataclass(frozen=True)
class Workload:
    polygons: str  # synth_data polygon dataset
    mode: str  # 'approx' | 'accurate'
    precision_m: float | None  # approximate mode's distance bound
    n_points: int  # probe points (taxi-like)
    n_train: int  # historical training points; 0 = untrained
    n_oracle: int  # sampled points checked against the SQL oracle


#: Bench-scale workloads; ``--scale test`` shrinks them for a smoke run.
WORKLOADS = {
    "approx-nbhd-taxi": Workload("neighborhoods", "approx", 4.0, 1_000_000, 0, 2_000),
    "exact-boroughs-taxi": Workload("boroughs", "accurate", None, 200_000, 0, 500),
    "trained-nbhd-taxi": Workload("neighborhoods", "accurate", None, 1_000_000, 100_000, 2_000),
}
TEST_SIZES = {"n_points": 20_000, "n_train": 2_000, "n_oracle": 500}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--scale", choices=("bench", "test"), default="bench")
    return p.parse_args(argv)


#: Spark's and Python's scratch space for this run, removed at the end.
TMP = OUT / f"tmp-{os.getpid()}"


def start_spark():
    """Local Spark session whose files all stay under ``perfbench/out``."""
    tmp = TMP
    tmp.mkdir(parents=True, exist_ok=True)
    src = str(ROOT / "src")
    os.environ["TMPDIR"] = str(tmp)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_DRIVER_PYTHON"] = sys.executable
    java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    # spark-submit first runs a launcher JVM that builds the real command.
    os.environ["SPARK_LAUNCHER_OPTS"] = java_opts
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master local[{CORES}]",
            f"--driver-memory {DRIVER_MEMORY}",
            f"--driver-java-options {shlex.quote(java_opts)}",
            f"--conf spark.local.dir={shlex.quote(str(tmp))}",
            f"--conf spark.sql.warehouse.dir={shlex.quote(str(tmp / 'warehouse'))}",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            "--conf spark.driver.host=127.0.0.1",
            "pyspark-shell",
        ]
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.shuffle.partitions", str(CORES))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session, then end the JVM and wait for it to exit."""
    gateway = spark.sparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    shutil.rmtree(TMP, ignore_errors=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "core" / "join.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from bench import run_workload  # imports the program; needs src on the path

    wl = WORKLOADS[args.workload]
    if args.scale == "test":
        wl = Workload(**{**asdict(wl), **{k: min(v, getattr(wl, k)) for k, v in TEST_SIZES.items()}})
    spark = start_spark()
    try:
        result = run_workload(spark, wl, args)
    finally:
        stop_spark(spark)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
