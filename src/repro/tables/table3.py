"""Table 3: lookup speedups of coarser over finer polygon datasets.

For each structure, the single-threaded probe throughput is measured on
the 4 m indexes of the three polygon datasets (taxi points), and the table
reports the ratios boroughs/neighborhoods, boroughs/census and
neighborhoods/census. The paper's claim: ACT gains the most from coarse
datasets because their large cells are indexed near the root, while GBT/LB
only benefit from the smaller total cell count.
"""
from __future__ import annotations

from repro.perf.counters import interleaved_seconds
from repro.tables import emit, format_rows
from repro.tables import datasets as ds

STRUCTURES = tuple(ds.STRUCTURES)
DATASETS = ("boroughs", "neighborhoods", "census")

#: Paper Table 3: {structure: (b_over_n, b_over_c, n_over_c)}.
PAPER = {
    "ACT1": (2.63, 8.63, 3.28),
    "ACT2": (2.00, 5.33, 2.66),
    "ACT4": (2.36, 7.29, 3.08),
    "GBT": (2.05, 3.51, 1.71),
    "LB": (1.83, 2.63, 1.44),
}

#: Probed points and timing rounds per scale. The test scale probes a
#: fixed 100 K points (not the test workload's 20 K): a 1-2 ms probe is
#: too short to time reliably on a shared machine.
N_PROBE = {"test": 100_000, "bench": ds.POINTS["bench"]}
REPEATS = {"test": 9, "bench": 5}


def throughputs(
    scale: str = "test", precision_m: float = 4.0, kind: str = "taxi"
) -> dict[tuple[str, str], float]:
    """{(structure, dataset): throughput Mpts/s}, the median over rounds
    that probe the three datasets' indexes in turn."""
    _px, _py, pt = ds.point_cells(kind, scale, n=N_PROBE[scale])
    out = {}
    for structure in STRUCTURES:
        indexes = [
            ds.index(name, scale, ds.STRUCTURES[structure], "approx", precision_m).index
            for name in DATASETS
        ]
        seconds, _ = interleaved_seconds(
            [lambda index=index: index.probe(pt) for index in indexes], REPEATS[scale]
        )
        for name, s in zip(DATASETS, seconds):
            out[(structure, name)] = len(pt) / s / 1e6
    return out


def run(scale: str = "test", precision_m: float = 4.0) -> list[dict]:
    tp = throughputs(scale, precision_m)
    rows = []
    for structure in STRUCTURES:
        b = tp[(structure, "boroughs")]
        n = tp[(structure, "neighborhoods")]
        c = tp[(structure, "census")]
        rows.append(
            {
                "index": structure,
                "b_over_n": round(b / n, 2),
                "b_over_c": round(b / c, 2),
                "n_over_c": round(n / c, 2),
                "boroughs_Mpts": round(b, 2),
                "neighborhoods_Mpts": round(n, 2),
                "census_Mpts": round(c, 2),
            }
        )
    emit(
        format_rows(
            rows,
            f"Table 3 (scale={scale}): speedups of coarse over fine polygon "
            "datasets (taxi points, 4m)",
        )
    )
    return rows


if __name__ == "__main__":
    run(scale="bench")
