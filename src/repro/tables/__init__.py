"""Per-table reproduction harnesses (Tables 1-7 of the paper).

Each ``tableN`` module exposes ``run(scale='test'|'bench')`` returning
the measured rows and printing a paper-shaped table, plus a ``PAPER``
constant with the numbers the paper reports (diffed in EXPERIMENTS.md).
The harnesses run on the driver alone. ``python jobs/table.py N`` runs
table N from the command line; ``benchmarks/bench_tables.py`` regenerates
them under pytest-benchmark.
"""
from __future__ import annotations

import os


def emit(text: str) -> str:
    """Print harness output and tee it to ``REPRO_TABLE_LOG`` if set.

    pytest captures stdout of passing tests, so the benchmark entrypoints
    set ``REPRO_TABLE_LOG`` to persist the measured rows (bench_results.txt)
    alongside pytest-benchmark's timing summary (bench_output.txt).
    """
    print(text)
    path = os.environ.get("REPRO_TABLE_LOG")
    if path:
        with open(path, "a") as f:
            f.write(text + "\n\n")
    return text


def format_rows(rows: list[dict], title: str = "") -> str:
    """Fixed-width text table for harness output."""
    if not rows:
        return f"{title}\n(no rows)"
    cols = list(rows[0].keys())
    widths = {
        c: max(len(str(c)), *(len(str(r.get(c, ""))) for r in rows)) for c in cols
    }
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(c).rjust(widths[c]) for c in cols))
    for r in rows:
        lines.append("  ".join(str(r.get(c, "")).rjust(widths[c]) for c in cols))
    return "\n".join(lines)
