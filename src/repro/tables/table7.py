"""Table 7: effect of training on the solely-true-hits (STH) metric.

STH = percentage of points that skip the expensive refinement phase
entirely (their probe returns no candidate reference). The paper reports
untrained -> trained-with-1M-points; we use the scaled largest training
size (datasets.TRAIN_SIZES).
"""
from __future__ import annotations

from repro.core.join import probe_batch
from repro.tables import format_rows
from repro.tables import datasets as ds

#: Paper Table 7: {dataset: (sth_untrained_%, sth_trained_%)}.
PAPER = {
    "boroughs": (99.9, 99.9),
    "neighborhoods": (87.2, 97.7),
    "census": (72.2, 88.7),
}


def sth_percent(bundle, px, py) -> float:
    _r, _p, _t, stats = probe_batch(bundle, px, py, exact=False)
    return 100.0 * stats["sth_points"] / stats["points"]


def run(scale: str = "test") -> list[dict]:
    px, py, _pt = ds.point_cells("taxi", scale, seed=7)
    n_train = ds.TRAIN_SIZES[scale][-1]
    rows = []
    for name in ("boroughs", "neighborhoods", "census"):
        base = ds.index(name, scale, "act4", "accurate", None)
        trained = ds.index(name, scale, "act4", "accurate", None, n_train)
        rows.append(
            {
                "dataset": name,
                "sth_untrained_%": round(sth_percent(base, px, py), 1),
                "sth_trained_%": round(sth_percent(trained, px, py), 1),
                "n_train": n_train,
                "paper_untrained_%": PAPER[name][0],
                "paper_trained_%": PAPER[name][1],
            }
        )
    print(
        format_rows(
            rows,
            f"Table 7 (scale={scale}): solely-true-hits before/after training",
        )
    )
    return rows
