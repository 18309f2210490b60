"""Table 4: distribution of the ACT4 tree-traversal depth (4 m precision).

The paper plots, per polygon dataset and point workload (uniform vs taxi),
the probability that a probe terminates at each trie level. Expected
shape: uniform points skew toward the root (they mostly hit large interior
cells); taxi points' depth depends on the dataset — shallow for boroughs,
deeper for census (small cells).
"""
from __future__ import annotations

import numpy as np

from repro.tables import format_rows
from repro.tables import datasets as ds

#: Paper Table 4 is a grid of histograms; the qualitative reference shape
#: we diff against (per dataset, dominant tree level for each workload).
PAPER = {
    ("uniform", "boroughs"): "mass at levels 0-1 (skewed to root)",
    ("uniform", "neighborhoods"): "mass at levels 0-2 (skewed to root)",
    ("uniform", "census"): "mass at levels 1-3",
    ("taxi", "boroughs"): "most traversals end at level 1",
    ("taxi", "neighborhoods"): "mass at levels 1-3",
    ("taxi", "census"): "points mostly hit small cells at level 3",
}


def run(scale: str = "test") -> list[dict]:
    rows = []
    for kind in ("uniform", "taxi"):
        _px, _py, pt = ds.point_cells(kind, scale)
        for name in ("boroughs", "neighborhoods", "census"):
            bundle = ds.index(name, scale, "act4", "approx", ds.INDEX_PRECISION_M)
            _entries, depths = bundle.index.probe(pt)
            depths = depths[depths >= 0]
            hist = np.bincount(depths, minlength=5)[:5] / max(1, len(depths))
            row = {"points": kind, "dataset": name}
            for lvl in range(5):
                row[f"level_{lvl}"] = round(float(hist[lvl]), 3)
            row["avg_depth"] = round(float(depths.mean()), 2)
            rows.append(row)
    print(
        format_rows(
            rows,
            f"Table 4 (scale={scale}): ACT4 traversal depth distribution "
            "(fraction of points per tree level, 4m)",
        )
    )
    return rows
