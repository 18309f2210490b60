"""spark-submit entrypoint reproducing one of Tables 1-7 of the paper.

Usage: spark-submit jobs/table.py N [--scale test|bench]
"""
import argparse
import importlib

from pyspark.sql import SparkSession


def parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser()
    p.add_argument("table", type=int, choices=range(1, 8), help="paper table number")
    p.add_argument("--scale", default="bench", choices=["test", "bench"])
    return p


def main(argv=None) -> None:
    args = parser().parse_args(argv)
    table = importlib.import_module(f"repro.tables.table{args.table}")
    spark = SparkSession.builder.appName(f"repro-table{args.table}").getOrCreate()
    try:
        table.run(spark=spark, scale=args.scale)
    finally:
        spark.stop()


if __name__ == "__main__":
    main()
