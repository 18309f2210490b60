"""Result checks that do not trust the index.

The truth for a sample of points comes from the DuckDB crossing-number
join (``repro.geometry.sql_oracle.PIP_JOIN_SQL``), which shares no code
with the cell index or the numpy geometry. An exact join must return
exactly the true pairs. An approximate join must return every true pair,
and each extra pair must lie within the precision bound of its polygon
(paper §3.2), measured with ``point_to_polygon_distance``.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import duckdb
import numpy as np
import pandas as pd

from repro.geometry.polygon import PolygonSet, point_to_polygon_distance
from repro.geometry.sql_oracle import PIP_JOIN_SQL

#: Slack on the precision bound for floating-point rounding, in meters.
_BOUND_SLACK_M = 1e-6


@dataclass
class PairCheck:
    emitted: int
    false_positives: int
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def fp_frac(self) -> float:
        return self.false_positives / self.emitted if self.emitted else 0.0


def sample_pids(n_points: int, k: int, seed: int) -> np.ndarray:
    """``k`` distinct point ids out of ``n_points``, fixed by ``seed``."""
    g = np.random.default_rng(seed)
    return np.sort(g.choice(n_points, size=min(k, n_points), replace=False))


def truth_pairs(
    px: np.ndarray, py: np.ndarray, pids: np.ndarray, pset: PolygonSet
) -> set[tuple[int, int]]:
    """True (pid, poly_id) containments of the sampled points, by SQL."""
    points = pd.DataFrame({"pid": pids.astype(np.int64), "x": px[pids], "y": py[pids]})
    con = duckdb.connect()
    try:
        con.register("points", points)
        con.register("edges", pset.edges_pdf())
        rows = con.execute(PIP_JOIN_SQL).fetchall()
    finally:
        con.close()
    return {(int(p), int(q)) for p, q in rows}


def check_pairs(
    got: set[tuple[int, int]],
    truth: set[tuple[int, int]],
    px: np.ndarray,
    py: np.ndarray,
    pset: PolygonSet,
    precision_m: float | None,
) -> PairCheck:
    """Compare the join's pairs for the sampled points with the truth.

    ``precision_m=None`` means an exact join: no pair may be missing or
    extra. Otherwise the join may add pairs, each within ``precision_m``.
    """
    out = PairCheck(emitted=len(got), false_positives=len(got - truth))
    missing = truth - got
    if missing:
        out.problems.append(f"{len(missing)} true pairs missing, e.g. {min(missing)}")
    extra = sorted(got - truth)
    if extra and precision_m is None:
        out.problems.append(f"{len(extra)} false pairs in an exact join, e.g. {extra[0]}")
    elif extra:
        far = []
        for pid, poly in extra:
            d = point_to_polygon_distance(px[pid : pid + 1], py[pid : pid + 1], pset.polygons[poly])[0]
            if d > precision_m + _BOUND_SLACK_M:
                far.append((pid, poly, d))
        if far:
            pid, poly, d = far[0]
            out.problems.append(
                f"{len(far)} false pairs beyond {precision_m} m, e.g. point {pid} "
                f"is {d:.3f} m from polygon {poly}"
            )
    return out


def count_mismatch(counts: dict[int, int], reference: dict[int, int]) -> str | None:
    """Describe how per-polygon counts differ from the reference, or None."""
    if counts == reference:
        return None
    diff = sorted(k for k in counts.keys() | reference.keys() if counts.get(k) != reference.get(k))
    k = diff[0]
    return (
        f"per-polygon counts differ on {len(diff)} polygons, e.g. polygon {k}: "
        f"{counts.get(k, 0)} vs {reference.get(k, 0)}"
    )
