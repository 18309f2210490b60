"""Command-line entrypoint reproducing the paper's Tables 1-7 and the
supplementary §4.2 baseline claims.

Every table asked for runs in this one process, in the order given, so an
index that several tables use is built once. The table harnesses run on
the driver alone, so no SparkSession is started. To regenerate them all:

    python jobs/table.py 1 2 3 4 5 6 7 supplementary --scale bench > bench_results.txt
"""
import argparse
import importlib

#: Table name on the command line -> its harness module in ``repro.tables``.
TABLES = {str(n): f"table{n}" for n in range(1, 8)}
TABLES["supplementary"] = "accurate_baselines"


def parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser()
    p.add_argument("tables", nargs="+", choices=TABLES)
    p.add_argument("--scale", default="bench", choices=["test", "bench"])
    return p


def main(argv=None) -> None:
    args = parser().parse_args(argv)
    for table in args.tables:
        importlib.import_module(f"repro.tables.{TABLES[table]}").run(scale=args.scale)
        print()


if __name__ == "__main__":
    main()
