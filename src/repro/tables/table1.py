"""Table 1: super covering metrics per polygon dataset and precision.

Paper columns: number of cells, lookup-table size, time to build the
individual coverings (parallelized over polygons in the paper; one
descent over all polygons here), and time to (serially) merge the super
covering.
"""
from __future__ import annotations

from repro.core.values import encode_values
from repro.tables import emit, format_rows
from repro.tables import datasets as ds

#: Paper Table 1 (NYC datasets at real scale, for EXPERIMENTS.md diffing).
PAPER = {
    # (dataset, precision_m): (cells_M, lookup_MiB, build_cov_s, build_super_s)
    ("boroughs", 60): (0.09, 0.00, 0.11, 0.10),
    ("boroughs", 15): (1.32, 0.00, 0.98, 0.94),
    ("boroughs", 4): (20.9, 0.00, 16.0, 15.2),
    ("neighborhoods", 60): (0.16, 0.01, 0.07, 0.17),
    ("neighborhoods", 15): (0.98, 0.01, 0.19, 0.81),
    ("neighborhoods", 4): (14.0, 0.01, 1.54, 10.5),
    ("census", 60): (8.50, 1.33, 0.96, 11.6),
    ("census", 15): (8.97, 1.33, 1.01, 11.8),
    ("census", 4): (39.8, 1.41, 3.08, 37.7),
}


def run(scale: str = "test") -> list[dict]:
    rows = []
    for name in ("boroughs", "neighborhoods", "census"):
        for prec in ds.PRECISIONS_M:
            sc, times = ds.supercovering(name, scale, "approx", prec)
            _vals, table = encode_values(
                sc.ref_offsets, sc.ref_poly, sc.ref_interior
            )
            rows.append(
                {
                    "dataset": name,
                    "precision_m": int(prec),
                    "cells": sc.n_cells,
                    "lookup_MiB": round(table.nbytes / 2**20, 4),
                    "build_coverings_s": round(times["coverings"], 2),
                    "build_supercovering_s": round(times["supercovering"], 2),
                }
            )
    emit(format_rows(rows, f"Table 1 (scale={scale}): super covering metrics"))
    return rows


if __name__ == "__main__":
    run(scale="bench")
