"""Table 6: accurate-join speedup from index training (over untrained ACT4).

The accurate join (exact results, PIP refinement on candidate hits) is
timed with the untrained index and with indexes trained on increasing
numbers of historical taxi points. The paper's 100 K / 500 K / 1 M training
sizes are scaled with the dataset (datasets.TRAIN_SIZES). Query points are
drawn from a different seed than training points (the paper joins 2010-2016
data with a 2009-trained index).
"""
from __future__ import annotations

from repro.core.join import probe_batch
from repro.perf.counters import interleaved_seconds
from repro.tables import format_rows
from repro.tables import datasets as ds

#: Paper Table 6: {(n_train_paper, dataset): speedup over untrained ACT4}.
PAPER = {
    (100_000, "boroughs"): 1.25,
    (100_000, "neighborhoods"): 1.56,
    (100_000, "census"): 1.16,
    (500_000, "boroughs"): 1.40,
    (500_000, "neighborhoods"): 2.00,
    (500_000, "census"): 1.40,
    (1_000_000, "boroughs"): 1.44,
    (1_000_000, "neighborhoods"): 2.18,
    (1_000_000, "census"): 1.53,
}
PAPER_TRAIN_SIZES = (100_000, 500_000, 1_000_000)


#: Query points for the timed accurate join, and timing rounds. 500k (vs
#: 2M elsewhere) keeps the PIP-heavy boroughs runs tractable; throughput is
#: per-point. The test scale joins a fixed 100 K points: a join of a few
#: milliseconds is too short to time reliably on a shared machine.
N_QUERY = {"test": 100_000, "bench": 500_000}
REPEATS = {"test": 9, "bench": 3}


def run(scale: str = "test") -> list[dict]:
    px, py, _pt = ds.point_cells("taxi", scale, n=N_QUERY[scale], seed=7)
    rows = []
    for name in ("boroughs", "neighborhoods", "census"):
        bundles = [
            ds.index(name, scale, "act4", "accurate", None, n)
            for n in (0, *ds.TRAIN_SIZES[scale])
        ]
        # Untrained and trained joins are timed in turn, round by round, so
        # the speedups compare medians taken under the same load.
        seconds, results = interleaved_seconds(
            [lambda b=b: probe_batch(b, px, py, exact=True) for b in bundles],
            REPEATS[scale],
        )
        t_base, st_base = seconds[0], results[0][3]
        for n_train, n_paper, t_tr, res in zip(
            ds.TRAIN_SIZES[scale], PAPER_TRAIN_SIZES, seconds[1:], results[1:]
        ):
            st_tr = res[3]
            rows.append(
                {
                    "dataset": name,
                    "n_train": n_train,
                    "paper_n_train": n_paper,
                    "speedup": round(t_base / t_tr, 2),
                    "untrained_Mpts": round(len(px) / t_base / 1e6, 2),
                    "trained_Mpts": round(len(px) / t_tr / 1e6, 2),
                    "pip_tests_untrained": st_base["pip_tests"],
                    "pip_tests_trained": st_tr["pip_tests"],
                    "paper_speedup": PAPER[(n_paper, name)],
                }
            )
    print(
        format_rows(
            rows,
            f"Table 6 (scale={scale}): accurate-join speedup from training "
            "(over untrained ACT4, taxi points)",
        )
    )
    return rows
