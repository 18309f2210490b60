"""Benchmarks regenerating Tables 1-7 of the paper (bench scale).

Run: pytest benchmarks/bench_tables.py --benchmark-only (one table:
add ``-k table3``). Scale down with REPRO_BENCH_SCALE=test for a quick
smoke run. The measured rows are printed by the harness and recorded in
EXPERIMENTS.md next to the paper's numbers.
"""
import importlib
import os

import pytest

SCALE = os.environ.get("REPRO_BENCH_SCALE", "bench")


@pytest.mark.parametrize("n", range(1, 8), ids=lambda n: f"table{n}")
def test_table(benchmark, n):
    run = importlib.import_module(f"repro.tables.table{n}").run
    rows = benchmark.pedantic(run, kwargs={"scale": SCALE}, rounds=1, iterations=1)
    assert rows
