"""spark-submit entrypoint: end-to-end Spark point-polygon join.

Builds the polygon index on the driver, joins a synthetic point DataFrame
against it with the approximate or accurate algorithm, and prints the
per-polygon counts the paper's probe phase computes: the top 20 polygons,
and the total number of pairs as the sum of the counts (one join).

Usage: spark-submit jobs/spatial_join.py [--dataset neighborhoods]
       [--mode approx|accurate] [--precision 4] [--points 1000000]
"""
import argparse

from pyspark.sql import SparkSession

from repro import synth_data as sd
from repro.core.join import build_index, count_per_polygon, spatial_join


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--dataset", default="neighborhoods", choices=sd.POLYGON_DATASETS)
    p.add_argument("--scale", default="bench", choices=["test", "bench"])
    p.add_argument("--mode", default="approx", choices=["approx", "accurate"])
    p.add_argument("--precision", type=float, default=4.0)
    p.add_argument("--points", type=int, default=1_000_000)
    p.add_argument("--kind", default="taxi", choices=["taxi", "uniform"])
    args = p.parse_args()
    spark = SparkSession.builder.appName("repro-spatial-join").getOrCreate()
    try:
        pset = sd.polygon_dataset(args.dataset, scale=args.scale)
        bundle = build_index(
            pset,
            sd.EXTENT,
            mode=args.mode,
            precision_m=args.precision if args.mode == "approx" else None,
            structure="act4",
        )
        points = sd.points_df(spark, args.kind, args.points)
        counts = count_per_polygon(spatial_join(spark, points, bundle)).toPandas()
        counts = counts.sort_values(["n_points", "poly_id"], ascending=[False, True])
        print(counts.head(20).to_string(index=False))
        print(f"total pairs: {counts['n_points'].sum()}  (index cells: {bundle.n_cells})")
    finally:
        spark.stop()


if __name__ == "__main__":
    main()
