"""Table 5: per-point cost counters (neighborhoods, 4 m precision).

The paper reports `perf` hardware counters per point (cycles,
instructions, branch misses, cache misses) for uniform vs taxi points. We
report the proxy counters the hardware events measure (DESIGN.md §3):
node accesses, key comparisons and index bytes touched are *derived*
from each probe's per-point cost and a fixed cost model; ns/point and
throughput are *measured*, the median of rounds that probe the five
structures in turn. The shapes to preserve: ACT4 < ACT2 < ACT1 < GBT < LB
in per-point cost, and taxi (clustered) cheaper than uniform on ACT.
"""
from __future__ import annotations

from repro.perf.counters import measure_probes
from repro.tables import format_rows
from repro.tables import datasets as ds

STRUCTURES = tuple(ds.STRUCTURES)
#: The paper measures Table 5 on the neighborhoods index only.
DATASET = "neighborhoods"

#: Timing rounds per scale.
REPEATS = {"test": 9, "bench": 5}

#: Paper Table 5: {(points, structure): (cycles, instructions,
#: branch_misses, cache_misses)} per point.
PAPER = {
    ("uniform", "ACT1"): (154, 214, 1.06, 0.29),
    ("uniform", "ACT2"): (99.8, 121, 1.04, 0.23),
    ("uniform", "ACT4"): (71.3, 82.4, 0.88, 0.18),
    ("uniform", "GBT"): (415, 486, 5.32, 0.70),
    ("uniform", "LB"): (569, 927, 8.38, 1.89),
    ("taxi", "ACT1"): (172, 202, 0.96, 0.22),
    ("taxi", "ACT2"): (93.8, 121, 0.83, 0.17),
    ("taxi", "ACT4"): (56.4, 81.3, 0.48, 0.15),
    ("taxi", "GBT"): (416, 393, 7.06, 0.29),
    ("taxi", "LB"): (817, 564, 10.8, 0.37),
}


def run(scale: str = "test") -> list[dict]:
    rows = []
    for kind in ("uniform", "taxi"):
        _px, _py, pt = ds.point_cells(kind, scale)
        indexes = {
            structure: ds.index(
                DATASET, scale, ds.STRUCTURES[structure], "approx", ds.INDEX_PRECISION_M
            ).index
            for structure in STRUCTURES
        }
        for c in measure_probes(indexes, pt, REPEATS[scale]):
            rows.append({"points": kind, **c.as_row()})
    print(
        format_rows(
            rows,
            f"Table 5 (scale={scale}): proxy cost counters per point "
            f"({DATASET}, 4m)",
        )
    )
    return rows
