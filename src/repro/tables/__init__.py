"""Per-table reproduction harnesses (Tables 1-7 of the paper).

Each ``tableN`` module, and ``accurate_baselines`` for the supplementary
§4.2 claims, exposes ``run(scale='test'|'bench')`` returning the measured
rows and printing a paper-shaped table, plus a ``PAPER`` constant with the
numbers the paper reports (diffed in EXPERIMENTS.md). The harnesses run on
the driver alone. ``jobs/table.py`` is their one entry point; it runs every
table asked for in one process, over one index cache:

    python jobs/table.py 1 2 3 4 5 6 7 supplementary --scale bench > bench_results.txt
"""
from __future__ import annotations


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
