"""Command-line entrypoint reproducing one of Tables 1-7 of the paper.

The table harnesses run on the driver alone, so no SparkSession is started.

Usage: python jobs/table.py N [--scale test|bench]
"""
import argparse
import importlib


def parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser()
    p.add_argument("table", type=int, choices=range(1, 8), help="paper table number")
    p.add_argument("--scale", default="bench", choices=["test", "bench"])
    return p


def main(argv=None) -> None:
    args = parser().parse_args(argv)
    importlib.import_module(f"repro.tables.table{args.table}").run(scale=args.scale)


if __name__ == "__main__":
    main()
