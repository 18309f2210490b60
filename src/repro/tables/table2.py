"""Table 2: size and build time of the probe structures at 4 m precision.

Paper columns: size [MiB] and single-threaded build [s] for ACT1 / ACT2 /
ACT4 / GBT / LB on the 4 m super coverings of the three polygon datasets.
(LB has no build time: the super covering is already sorted by cell id.)
"""
from __future__ import annotations

from repro.tables import format_rows
from repro.tables import datasets as ds

STRUCTURES = tuple(ds.STRUCTURES)

#: Paper Table 2: {(dataset, structure): (size_MiB, build_s)}.
PAPER = {
    ("boroughs", "ACT1"): (328, 2.11),
    ("boroughs", "ACT2"): (198, 1.46),
    ("boroughs", "ACT4"): (173, 1.06),
    ("boroughs", "GBT"): (359, 1.39),
    ("boroughs", "LB"): (319, None),
    ("neighborhoods", "ACT1"): (224, 1.36),
    ("neighborhoods", "ACT2"): (138, 0.98),
    ("neighborhoods", "ACT4"): (143, 0.69),
    ("neighborhoods", "GBT"): (240, 0.85),
    ("neighborhoods", "LB"): (214, None),
    ("census", "ACT1"): (624, 4.00),
    ("census", "ACT2"): (421, 3.11),
    ("census", "ACT4"): (1234, 2.80),
    ("census", "GBT"): (684, 2.85),
    ("census", "LB"): (608, None),
}


def run(scale: str = "test") -> list[dict]:
    rows = []
    for name in ("boroughs", "neighborhoods", "census"):
        for structure in STRUCTURES:
            bundle = ds.index(
                name, scale, ds.STRUCTURES[structure], "approx", ds.INDEX_PRECISION_M
            )
            bt = bundle.build_seconds["structure"]
            rows.append(
                {
                    "dataset": name,
                    "index": structure,
                    "cells": bundle.n_cells,
                    "size_MiB": round(bundle.index.nbytes() / 2**20, 2),
                    "build_s": "-" if structure == "LB" else round(bt, 3),
                }
            )
    print(
        format_rows(
            rows, f"Table 2 (scale={scale}): data structure metrics, 4m precision"
        )
    )
    return rows
